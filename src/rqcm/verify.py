"""Verification suites: frame invariance, operator identities, PDE residuals,
non-relativistic limits and transform cross-checks, with the shared
finite-difference engine they use as an oracle.

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
from dataclasses import dataclass, field

import numpy as np

from . import constraint, minkowski, oscillator, transforms
from .minkowski import FourVector, bound_system, minkowski_dot, reduced_mass, rest_mass
from .oscillator import (OscillatorState, ladder_apply, ladder_apply_explicit,
                         ladder_explicit_4d_value, ladder_explicit_value,
                         oscillator_state, psi_position, states_up_to)

DEFAULT_H_FIRST = 1e-6
DEFAULT_H_SECOND = 1e-5


# ---------------------------------------------------------------------------
# finite-difference engine

def finite_difference_gradient4(field, x: FourVector, h: float = DEFAULT_H_FIRST) -> np.ndarray:
    """Central-difference partials of a scalar field at x, error O(h^2).

    Steps scale as h * max(1, |component|); the result is complex when the
    field is.
    """
    comps = x.components
    out = []
    for mu in range(4):
        step = h * max(1.0, abs(comps[mu]))
        up = comps.copy(); up[mu] += step
        dn = comps.copy(); dn[mu] -= step
        out.append((field(FourVector.from_components(up))
                    - field(FourVector.from_components(dn))) / (2.0 * step))
    return np.asarray(out)


def finite_difference_second4(field, x: FourVector, mu: int,
                              h: float = DEFAULT_H_SECOND):
    """Central second difference along one stored component."""
    comps = x.components
    step = h * max(1.0, abs(comps[mu]))
    up = comps.copy(); up[mu] += step
    dn = comps.copy(); dn[mu] -= step
    return (field(FourVector.from_components(up)) - 2.0 * field(x)
            + field(FourVector.from_components(dn))) / (step * step)


def finite_difference_directional2(field, x: FourVector, direction,
                                   h: float = DEFAULT_H_SECOND):
    """Second derivative along a 4-direction in component space."""
    d = np.asarray(direction, dtype=float)
    step = h * max(1.0, float(np.max(np.abs(x.components))))
    up = FourVector.from_components(x.components + step * d)
    dn = FourVector.from_components(x.components - step * d)
    return (field(up) - 2.0 * field(x) + field(dn)) / (step * step)


def box4(field, x: FourVector, h: float = DEFAULT_H_SECOND):
    """Wave operator: spatial second derivatives minus the time one."""
    total = 0.0
    for mu in range(4):
        d2 = finite_difference_second4(field, x, mu, h)
        total = total + (d2 if mu < 3 else -d2)
    return total


# ---------------------------------------------------------------------------
# reports

def _plain(value):
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


@dataclass
class CaseRecord:
    check: str
    inputs: dict
    observed: float
    expected: float
    provenance: str
    tol: float
    abs_err: float = field(init=False)
    rel_err: float = field(init=False)

    def __post_init__(self):
        self.observed = float(self.observed)
        self.expected = float(self.expected)
        self.tol = float(self.tol)
        self.abs_err = abs(self.observed - self.expected)
        scale = max(abs(self.observed), abs(self.expected), 1.0)
        self.rel_err = self.abs_err / scale

    def to_dict(self) -> dict:
        return {"check": self.check,
                "inputs": {k: _plain(v) for k, v in self.inputs.items()},
                "observed": self.observed, "expected": self.expected,
                "provenance": self.provenance, "tol": self.tol,
                "abs_err": self.abs_err, "rel_err": self.rel_err}


@dataclass
class VerificationReport:
    suite: str
    tolerance: float
    cases: list
    notes: list
    max_abs_err: float = field(init=False)
    max_rel_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.cases:
            self.max_abs_err = max(c.abs_err for c in self.cases)
            # worst error on the headline-tolerance scale
            self.max_rel_err = max(c.rel_err / c.tol for c in self.cases) * self.tolerance
        else:
            self.max_abs_err = 0.0
            self.max_rel_err = 0.0
        self.passed = self.max_rel_err <= self.tolerance

    def to_dict(self) -> dict:
        return {"suite": self.suite, "tolerance": self.tolerance,
                "cases": [c.to_dict() for c in self.cases],
                "max_abs_err": self.max_abs_err, "max_rel_err": self.max_rel_err,
                "pass": self.passed, "notes": list(self.notes)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# random-case generation (shared conventions)

def _draw_system(rng, vmax: float):
    m1, m2 = rng.uniform(0.5, 3.0, 2)
    sigma = rng.uniform(0.0, 0.5 * m1 * m2)
    return bound_system(m1, m2, sigma, _draw_velocity(rng, vmax))


def _draw_velocity(rng, vmax: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.0, vmax) * direction


def _draw_vector(rng) -> FourVector:
    return FourVector.from_components(rng.uniform(-2.0, 2.0, 4))


# ---------------------------------------------------------------------------
# suites

def _dot3(a, b) -> float:
    """a[0] b[0] + a[1] b[1] + a[2] b[2] summed left to right; a @ b can round differently."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def run_invariance_suite(trials: int = 1000, vmax: float = 0.99, seed: int = 0,
                         tol: float = 1e-9, ortho_tol: float = 1e-10) -> VerificationReport:
    """Frame equality of |xi|^2, |pi|^2 and xi.pi plus projection orthogonality.

    Each trial draws a system, a position, a momentum and a second boost;
    constraint coordinates computed in both frames must agree in their
    rotation-invariant combinations.
    """
    if not 0.0 < vmax < 1.0:
        raise ValueError("vmax must be in (0, 1)")
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(trials):
        sys_a = _draw_system(rng, vmax)
        x = _draw_vector(rng)
        p = _draw_vector(rng)
        v = _draw_velocity(rng, vmax)
        sys_b = sys_a.boosted(v)
        xb = minkowski.general_boost(x, v)
        pb = minkowski.general_boost(p, v)
        xi_a = constraint.constraint_coordinates(x, sys_a).tolist()
        xi_b = constraint.constraint_coordinates(xb, sys_b).tolist()
        pi_a = constraint.constraint_coordinates(p, sys_a).tolist()
        pi_b = constraint.constraint_coordinates(pb, sys_b).tolist()
        for name, a, b in (("xi_sq", _dot3(xi_a, xi_a), _dot3(xi_b, xi_b)),
                           ("pi_sq", _dot3(pi_a, pi_a), _dot3(pi_b, pi_b)),
                           ("xi_dot_pi", _dot3(xi_a, pi_a), _dot3(xi_b, pi_b))):
            cases.append(CaseRecord(name, {"trial": trial}, b, a,
                                    "frame-invariant combination", tol))
        for name, w in (("perp_x", x), ("perp_p", p)):
            perp = minkowski.perp_projection(w, sys_a.P, sys_a.M0)
            resid = abs(minkowski_dot(sys_a.P, perp))
            scale = max(float(np.linalg.norm(sys_a.P.components))
                        * float(np.linalg.norm(perp.components)), 1.0)
            cases.append(CaseRecord(name, {"trial": trial}, resid / scale, 0.0,
                                    "projection orthogonal to P", ortho_tol))
    return VerificationReport("invariance", tol, cases, [f"seed={seed}", f"vmax={vmax}"])


def _phi_second(l: int, omega: float, xi: float) -> float:
    """Second derivative of the 1D position factor from the recurrence algebra.

    phi_l'' = Omega [ sqrt(l(l-1))/2 phi_{l-2} - (2l+1)/2 phi_l
                      + sqrt((l+1)(l+2))/2 phi_{l+2} ]
    (independent of the eigenvalue relation it is used to check).
    """
    y = math.sqrt(omega) * xi
    hf = oscillator._hermite_function
    down = math.sqrt(l * (l - 1)) / 2.0 * hf(l - 2, y) if l >= 2 else 0.0
    mid = (2.0 * l + 1.0) / 2.0 * hf(l, y)
    up = math.sqrt((l + 1) * (l + 2)) / 2.0 * hf(l + 2, y)
    return omega ** 1.25 * (down - mid + up)


def _internal_residual_analytic(state: OscillatorState, x: FourVector,
                                sigma_used: float) -> tuple[float, float]:
    """(-sum d2/dxi2 + Omega^2 xi^2 - 2 sigma) psi at x; returns (residual, |2 sigma psi|)."""
    xi = constraint.constraint_coordinates(x, state.sys)
    om = state.omega
    ls = state.q.as_tuple()
    vals = [oscillator.phi_1d(ls[k], om, xi[k]) for k in range(3)]
    secs = [_phi_second(ls[k], om, xi[k]) for k in range(3)]
    psi = vals[0] * vals[1] * vals[2]
    lap = (secs[0] * vals[1] * vals[2] + vals[0] * secs[1] * vals[2]
           + vals[0] * vals[1] * secs[2])
    resid = -lap + om * om * float(xi @ xi) * psi - 2.0 * sigma_used * psi
    return resid, abs(2.0 * sigma_used * psi)


def _internal_residual_fd(state: OscillatorState, x: FourVector, sigma_used: float,
                          h: float) -> tuple[float, float]:
    """Same residual with the constraint-space Laplacian reduced to 4-space
    finite differences: sum d2/dxi2 = box - (P^mu d_mu / M0)^2."""
    sys = state.sys
    field_fn = lambda pt: psi_position(state, pt).real
    lap4 = box4(field_fn, x, h)
    direction = sys.P.components / sys.M0
    dir2 = finite_difference_directional2(field_fn, x, direction, h)
    lap_xi = lap4 - dir2
    xi = constraint.constraint_coordinates(x, sys)
    psi = field_fn(x)
    om = state.omega
    resid = -lap_xi + om * om * float(xi @ xi) * psi - 2.0 * sigma_used * psi
    return resid, abs(2.0 * sigma_used * psi)


def run_pde_suite(states=None, points_per_state: int = 20, mode: str = "fd",
                  vmax: float = 0.9, seed: int = 0, sigma_perturb: float = 0.0,
                  omega: float = 1.0, m1: float = 1.0, m2: float = 1.3,
                  max_n: int = 4, tol: float | None = None,
                  h_second: float = DEFAULT_H_SECOND, h_cm: float = 1e-4) -> VerificationReport:
    """Residuals of the centre-of-mass wave equation, the transversality
    condition and the internal oscillator equation on random points.

    mode="analytic" evaluates closed-form derivatives in the rest frame
    (tolerance 1e-10); mode="fd" uses 4-space finite differences in frames
    boosted up to vmax (tolerance 1e-5). sigma_perturb (units of Omega)
    offsets the eigenvalue used in the residual; nonzero values are a
    deliberate failure control.
    """
    if mode not in ("analytic", "fd"):
        raise ValueError("mode must be 'analytic' or 'fd'")
    tol = tol if tol is not None else (1e-10 if mode == "analytic" else 1e-5)
    rng = np.random.default_rng(seed)
    if states is None:
        states = []
        for n in range(max_n + 1):
            for q in oscillator.quantum_numbers_at_level(n):
                vel = (0.0, 0.0, 0.0) if mode == "analytic" else _draw_velocity(rng, vmax)
                states.append(oscillator_state(q, omega, m1, m2, vel))
    cases = []
    for idx, state in enumerate(states):
        sys = state.sys
        sigma_used = state.sigma + sigma_perturb * state.omega
        resids = []
        for _ in range(points_per_state):
            x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
            if mode == "analytic":
                resids.append(_internal_residual_analytic(state, x, sigma_used))
            else:
                resids.append(_internal_residual_fd(state, x, sigma_used, h_second))
        scale = max(max(s for _, s in resids), 1e-30)
        for k, (r, _) in enumerate(resids):
            cases.append(CaseRecord("internal_equation",
                                    {"state": idx, "point": k, "mode": mode},
                                    r / scale, 0.0, "internal oscillator equation", tol))
        # centre-of-mass wave equation
        if mode == "analytic":
            cases.append(CaseRecord("cm_wave", {"state": idx},
                                    -minkowski_dot(sys.P, sys.P), sys.M0 ** 2,
                                    "plane-wave phase, exact", tol))
        else:
            x = FourVector.from_components(rng.uniform(-1.0, 1.0, 4))
            base = psi_position(state, x)
            phase_fn = lambda X: complex(np.exp(1j * minkowski_dot(sys.P, X))) * base
            X0 = FourVector.from_components(rng.uniform(-2.0, 2.0, 4))
            lap = box4(phase_fn, X0, h_cm)
            want = sys.M0 ** 2 * phase_fn(X0)
            cases.append(CaseRecord("cm_wave", {"state": idx},
                                    abs(lap - want) / max(abs(want), 1.0), 0.0,
                                    "plane-wave phase, finite differences", tol))
        # transversality of the internal factor
        for k in range(3):
            x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
            field_fn = lambda pt: psi_position(state, pt).real
            if mode == "analytic":
                grad = oscillator.psi_position_gradient(state, x).real
            else:
                grad = finite_difference_gradient4(field_fn, x)
            contraction = float(sys.P.spatial @ grad[:3] + sys.P.c4 * grad[3])
            scale = max(float(np.linalg.norm(sys.P.components))
                        * float(np.linalg.norm(grad)), 1e-3)
            cases.append(CaseRecord("transversality", {"state": idx, "axis": k + 1},
                                    contraction / scale, 0.0,
                                    "P^mu d_mu psi = 0", tol))
    notes = [f"seed={seed}", f"mode={mode}", f"sigma_perturb={sigma_perturb}"]
    return VerificationReport("pde", tol, cases, notes)


def _constrained_test_field(sys, coeffs):
    """Smooth transversal field g(xi(x)) with an analytic value; used by the
    decomposition checks. coeffs parameterises a polynomial-Gaussian bump."""
    c0, c1, c2, c3 = coeffs

    def value(x: FourVector) -> float:
        k = constraint.constraint_coordinates(x, sys)
        poly = c0 + c1 * k[0] + c2 * k[1] * k[2] + c3 * k[0] * k[2]
        return math.exp(-0.5 * float(k @ k)) * poly

    return value


def run_ladder_suite(max_n: int = 4, points: int = 20, seed: int = 0,
                     vmax: float = 0.9, omega: float = 1.0, m1: float = 1.0,
                     m2: float = 1.3, tol: float = 1e-5,
                     annihilation_tol: float = 1e-8) -> VerificationReport:
    """Raising/lowering coefficients, the eigenvalue identity, and the
    equality of the explicit operator with its flat 4-space decomposition."""
    rng = np.random.default_rng(seed)
    cases = []
    states = []
    for n in range(max_n + 1):
        for q in oscillator.quantum_numbers_at_level(n):
            states.append(oscillator_state(q, omega, m1, m2, _draw_velocity(rng, vmax)))
    for idx, state in enumerate(states):
        for axis in (1, 2, 3):
            for direction in ("lower", "raise"):
                coeff, new_state = ladder_apply(direction, axis, state)
                samples = []
                for _ in range(points):
                    x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
                    got = ladder_apply_explicit(direction, axis, state, x,
                                                gradient=finite_difference_gradient4)
                    want = 0.0 if new_state is None else coeff * psi_position(new_state, x)
                    samples.append((got, want))
                if new_state is None:
                    for k, (got, _) in enumerate(samples):
                        cases.append(CaseRecord("annihilation",
                                                {"state": idx, "axis": axis, "point": k},
                                                abs(got), 0.0,
                                                "lowering the ground level gives zero",
                                                annihilation_tol))
                else:
                    scale = max(max(abs(w) for _, w in samples), 1e-3)
                    for k, (got, want) in enumerate(samples):
                        cases.append(CaseRecord(
                            f"explicit_{direction}",
                            {"state": idx, "axis": axis, "point": k},
                            abs(got - want) / scale, 0.0,
                            "explicit operator vs ladder coefficient", tol))
            # coefficient algebra, exact in integer arithmetic
            c_low, lowered = ladder_apply("lower", axis, state)
            down_up = c_low * (ladder_apply("raise", axis, lowered)[0] if lowered else 0.0)
            c_up, raised = ladder_apply("raise", axis, state)
            up_down = c_up * ladder_apply("lower", axis, raised)[0]
            cases.append(CaseRecord("commutator", {"state": idx, "axis": axis},
                                    down_up - up_down, -1.0,
                                    "raise-lower minus lower-raise", 1e-12))
        number = 0.0
        for axis in (1, 2, 3):
            c_low, lowered = ladder_apply("lower", axis, state)
            if lowered is not None:
                number += c_low * ladder_apply("raise", axis, lowered)[0]
        cases.append(CaseRecord("eigenvalue_identity", {"state": idx},
                                state.omega * (number + 1.5), state.sigma,
                                "number operator plus zero point", 1e-12))
        # decomposition into flat 4-space ladder components, on the state itself
        for _ in range(3):
            x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
            value = psi_position(state, x)
            grad = oscillator.psi_position_gradient(state, x)
            for axis in (1, 2, 3):
                for direction in ("lower", "raise"):
                    a = ladder_explicit_value(direction, axis, state.omega, state.sys,
                                              x, value, grad)
                    b = ladder_explicit_4d_value(direction, axis, state.omega, state.sys,
                                                 x, value, grad)
                    cases.append(CaseRecord("decomposition_state",
                                            {"state": idx, "axis": axis},
                                            abs(a - b), 0.0,
                                            "4-space decomposition on eigenstates", tol))
    # decomposition on generic transversal fields, finite-difference gradients
    sys = _draw_system(rng, vmax)
    for k in range(20):
        fld = _constrained_test_field(sys, rng.uniform(-1.0, 1.0, 4))
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        value = fld(x)
        grad = finite_difference_gradient4(fld, x)
        for axis in (1, 2, 3):
            for direction in ("lower", "raise"):
                a = ladder_explicit_value(direction, axis, omega, sys, x, value, grad)
                b = ladder_explicit_4d_value(direction, axis, omega, sys, x, value, grad)
                cases.append(CaseRecord("decomposition_field", {"field": k, "axis": axis},
                                        abs(a - b), 0.0,
                                        "4-space decomposition on test fields", tol))
    return VerificationReport("ladder", tol, cases, [f"seed={seed}", f"vmax={vmax}"])


def run_nr_limit_suite(mass_pairs=None, sigma0: float = 1e-3, seed: int = 0,
                       ratio_window: tuple = (3.5, 4.5)) -> VerificationReport:
    """Quadratic approach of the rest mass to m1 + m2 + sigma/m_r, the
    free-particle identity and the rest-frame ladder coefficients."""
    rng = np.random.default_rng(seed)
    if mass_pairs is None:
        mass_pairs = [tuple(rng.uniform(0.5, 3.0, 2)) for _ in range(20)]
    lo, hi = ratio_window
    mid = 0.5 * (lo + hi)
    tol = 0.5 * (hi - lo)  # deviation of the halving ratio from mid, absolute
    cases = []
    for k, (m1, m2) in enumerate(mass_pairs):
        mr = reduced_mass(m1, m2)
        err = lambda s: abs(rest_mass(m1, m2, s) - (m1 + m2 + s / mr))
        ratio = err(sigma0) / err(sigma0 / 2.0)
        cases.append(CaseRecord("quadratic_convergence", {"pair": k, "ratio": ratio},
                                ratio - mid, 0.0,
                                "halving the separation constant", tol))
        cases.append(CaseRecord("free_particle", {"pair": k},
                                rest_mass(m1, m2, 0.0), m1 + m2,
                                "sigma = 0 rest mass", 1e-12))
    # small-sigma energy for the equal-mass reference point
    cases.append(CaseRecord("nr_energy", {"m1": 1.0, "m2": 1.0, "sigma": sigma0},
                            rest_mass(1.0, 1.0, sigma0) - (2.0 + sigma0 / 0.5), 0.0,
                            "small-sigma rest mass expansion", 5e-6))
    # rest-frame ladder operator equals the Schroedinger form with Omega = m_r w
    m1, m2, w_nr = 1.0, 1.3, 0.7
    om = oscillator.nr_spring_constant(m1, m2, w_nr)
    state = oscillator_state((1, 0, 0), om, m1, m2)
    rng2 = np.random.default_rng(seed + 1)
    for k in range(5):
        x = FourVector.from_components(rng2.uniform(-1.0, 1.0, 4))
        value = psi_position(state, x)
        grad = oscillator.psi_position_gradient(state, x)
        for direction, sgn in (("raise", +1), ("lower", -1)):
            got = ladder_explicit_value(direction, 1, om, state.sys, x, value, grad)
            schrod = (-sgn * grad[0] + om * x.c1 * value) / math.sqrt(2.0 * om)
            cases.append(CaseRecord("schrodinger_form", {"point": k, "direction": direction},
                                    abs(got - schrod), 0.0,
                                    "rest-frame operator vs Schroedinger ladder", 1e-12))
    return VerificationReport("nr-limit", tol, cases, [f"seed={seed}", f"sigma0={sigma0}"])


def run_transform_suite(max_n: int = 4, order: int = 32, roundtrip_order: int = 64,
                        bargmann_order: int = 48, bargmann_sign: int = +1,
                        bargmann_lmax: int = 8, omega: float = 1.1,
                        norm_max_n: int = 6, m1: float = 1.0, m2: float = 1.3,
                        seed: int = 0, tol: float = 1e-8) -> VerificationReport:
    """Numeric Fourier against the closed momentum forms, round-trip
    inversion, Parseval, Segal-Bargmann monomials and normalisation."""
    import warnings as _warnings
    rng = np.random.default_rng(seed)
    notes = [f"seed={seed}", f"order={order}"]
    if order < 2 * max_n + 8:
        notes.append(f"insufficient order: {order} < 2*max_n + 8 = {2 * max_n + 8}")
    cases = []
    rule = transforms.gauss_hermite(order)
    rule_rt = transforms.gauss_hermite(roundtrip_order)
    rule_bg = transforms.gauss_hermite(bargmann_order)
    states = states_up_to(max_n, omega, m1, m2)
    reach = min(3.5 * math.sqrt(omega), 0.95 * transforms.trust_momentum(rule, omega))
    axis_targets = np.linspace(-reach, reach, 5)
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        for idx, state in enumerate(states):
            num = transforms.fourier_of_state(state, (axis_targets,) * 3, rule)
            prof = oscillator.momentum_profile(state)
            ana = prof(axis_targets[:, None, None], axis_targets[None, :, None],
                       axis_targets[None, None, :])
            err = float(np.max(np.abs(np.abs(num) - np.abs(ana))))
            cases.append(CaseRecord("fourier_modulus", {"state": idx}, err, 0.0,
                                    "numeric transform vs closed momentum form", tol))
        # measured eigenphase of the forward transform, recorded not asserted
        phases = []
        for l in range(5):
            g = lambda xi, l=l: oscillator.phi_1d(l, omega, xi)
            num = transforms.fourier_forward1d(g, 0.6 * math.sqrt(omega), rule, omega)
            ana = oscillator.phi_1d_momentum(l, omega, 0.6 * math.sqrt(omega))
            phases.append(num / ana)
        notes.append("forward eigenphase per l (measured): "
                     + ", ".join(f"{z:.6f}" for z in phases))
        # round trip and Parseval on the worst few states at the round-trip order
        rt_targets = np.linspace(-2.5 / math.sqrt(omega), 2.5 / math.sqrt(omega), 4)
        ppts, peff = transforms.momentum_quadrature(rule_rt, omega)
        for idx, state in enumerate(states[:: max(1, len(states) // 7)]):
            g = oscillator.position_profile(state)

            def fwd(p1, p2, p3, state=state):
                # the inverse samples a product grid; ravel back to axes so the
                # forward runs on a product grid, one axis at a time
                axes = (np.asarray(p1, dtype=float).ravel(),
                        np.asarray(p2, dtype=float).ravel(),
                        np.asarray(p3, dtype=float).ravel())
                return transforms.fourier_of_state(state, axes, rule_rt)

            back = transforms.fourier_inverse(fwd, (rt_targets,) * 3, rule_rt, omega)
            truth = g(rt_targets[:, None, None], rt_targets[None, :, None],
                      rt_targets[None, None, :])
            cases.append(CaseRecord("roundtrip", {"state": idx},
                                    float(np.max(np.abs(back - truth))), 0.0,
                                    "inverse of forward is the identity", tol))
            fnum = transforms.fourier_of_state(state, (ppts,) * 3, rule_rt)
            w3 = peff[:, None, None] * peff[None, :, None] * peff[None, None, :]
            pval = float(np.sum(w3 * np.abs(fnum) ** 2))
            cases.append(CaseRecord("parseval", {"state": idx}, pval, 1.0,
                                    "momentum norm equals position norm", tol))
        # Segal-Bargmann monomials over a complex grid
        grid = np.array([a + 1j * b for a in (-2.0, -1.0, 0.0, 1.0, 2.0)
                         for b in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        for l in range(bargmann_lmax + 1):
            g = lambda xi, l=l: oscillator.phi_1d(l, omega, xi)
            got = transforms.bargmann_transform(g, grid, omega, rule_bg, bargmann_sign)
            want = grid ** l / math.sqrt(math.factorial(l))
            cases.append(CaseRecord("bargmann_monomial", {"l": l},
                                    float(np.max(np.abs(got - want))), 0.0,
                                    "transform of the l-th factor", 1e-9))
        # normalisation across levels
        for idx, state in enumerate(states_up_to(norm_max_n, omega, m1, m2)):
            val = transforms.normalization_integral(state, rule)
            cases.append(CaseRecord("normalization", {"state": idx}, val, 1.0,
                                    "unit norm over the constraint space", 1e-10))
        # orthogonality spot checks
        base = states_up_to(2, omega, m1, m2)
        for _ in range(6):
            i, j = rng.integers(0, len(base), 2)
            if base[i].q == base[j].q:
                continue
            val = transforms.overlap_integral(base[i], base[j], rule)
            cases.append(CaseRecord("orthogonality", {"i": int(i), "j": int(j)},
                                    val, 0.0, "distinct states are orthogonal", 1e-10))
    for w in caught:
        if issubclass(w.category, transforms.InsufficientOrderWarning):
            note = f"insufficient order: {w.message}"
            if note not in notes:
                notes.append(note)
    return VerificationReport("transforms", tol, cases, notes)


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
