"""Aim 3 as one table: each numeric slot of every public entry point, given in turn each
value of VALUES, gives a finite value or raises ValueError, with no warning.

A slot whose default is a list is a vector: the value takes its first entry. Any other
slot takes the value itself. A new entry point joins ENTRIES. Out of scope: a non-number
where a state, a rule or a callable belongs, and the integer rules (levels, axes, counts,
quadrature orders), which have tables of their own.
"""
import dataclasses
import math

import numpy as np
import pytest

from rqcm import constraint, minkowski, oscillator, transforms, verify
from rqcm.minkowski import FourVector

VALUES = {"nan": math.nan, "inf": math.inf, "-1": -1, "0": 0, "True": True, "1j": 1j,
          "10**400": 10 ** 400, "(1,)": np.array([0.5]), "(2,)": np.array([0.5, 0.5]),
          "empty": np.array([]), "float32_nan": np.float32("nan"), "float32": np.float32(0.5),
          "0-d_float32": np.array(0.5, dtype=np.float32)}

_SYS = minkowski.bound_system(1.0, 1.3, 1.5, (0.1, 0.2, 0.0))
_STATE = oscillator.oscillator_state((1, 0, 0), 1.0, 1.0, 1.3, (0.1, 0.2, 0.0))
_RULE = transforms.gauss_hermite(8)
_PHI = lambda xi: oscillator.phi_1d(1, 1.0, xi)
_PROFILE = lambda x1, x2, x3: _PHI(x1) * _PHI(x2) * _PHI(x3)
_FIELD = lambda x: oscillator.psi_position(_STATE, x)
_POINT = [0.1, 0.2, 0.3, 0.4]
_VELOCITY = [0.1, 0.2, 0.0]
_TARGET = [0.1, -0.2, 0.3]
_P = _SYS.P.components.tolist()

# entry point -> (call taking keyword arguments, the numeric slots and their defaults)
ENTRIES = {
    "FourVector": (lambda c1, c2: minkowski.general_boost(FourVector(c1, c2, 0.3, 0.4),
                                                           (0.1, 0.0, 0.0)),
                   {"c1": 0.1, "c2": 0.2}),
    "rest_mass": (minkowski.rest_mass, {"m1": 1.0, "m2": 1.3, "sigma": 0.3}),
    "reduced_mass": (minkowski.reduced_mass, {"m1": 1.0, "m2": 1.3}),
    "eta_params": (minkowski.eta_params, {"m1": 1.0, "m2": 1.3, "M0": 2.5}),
    "on_shell_momentum": (minkowski.on_shell_momentum, {"M0": 2.5, "v": _VELOCITY}),
    "bound_system": (minkowski.bound_system,
                     {"m1": 1.0, "m2": 1.3, "sigma": 0.3, "velocity": _VELOCITY}),
    "general_boost": (minkowski.general_boost, {"x": _POINT, "v": _VELOCITY}),
    "perp_projection": (minkowski.perp_projection, {"w": _POINT, "P": _P, "M0": _SYS.M0}),
    "constraint_coordinates": (lambda w: constraint.constraint_coordinates(w, _SYS),
                               {"w": _POINT}),
    "xi_directional_derivative": (lambda grad4: constraint.xi_directional_derivative(
        grad4, 1, _SYS), {"grad4": _POINT}),
    "phi_1d": (lambda omega, xi: oscillator.phi_1d(2, omega, xi), {"omega": 1.1, "xi": 0.4}),
    "phi_1d_momentum": (lambda omega, pi_: oscillator.phi_1d_momentum(2, omega, pi_),
                        {"omega": 1.1, "pi_": 0.4}),
    "phi_1d_derivative": (lambda omega, xi: oscillator.phi_1d_derivative(2, omega, xi),
                          {"omega": 1.1, "xi": 0.4}),
    "phi_1d_bargmann": (lambda omega, alpha: oscillator.phi_1d_bargmann(2, omega, alpha),
                        {"omega": 1.1, "alpha": 0.4}),
    "sigma_n": (lambda omega: oscillator.sigma_n(omega, 1), {"omega": 1.1}),
    "nr_spring_constant": (oscillator.nr_spring_constant,
                           {"m1": 1.0, "m2": 1.3, "omega_nr": 0.7}),
    "oscillator_state": (lambda **kw: oscillator.oscillator_state((0, 0, 0), **kw),
                         {"omega": 1.1, "m1": 1.0, "m2": 1.3, "velocity": _VELOCITY}),
    "OscillatorState": (lambda omega: oscillator.OscillatorState(_STATE.q, omega, _STATE.sys),
                        {"omega": 1.0}),
    **{psi.__name__: (lambda psi=psi, **kw: psi(_STATE, **kw), {slot: _POINT, "X": _POINT})
       for psi, slot in ((oscillator.psi_position, "x"), (oscillator.psi_momentum, "p"),
                         (oscillator.psi_bargmann, "a"), (oscillator.psi_position_gradient, "x"))},
    **{ladder.__name__: (lambda ladder=ladder, **kw: ladder("raise", 1, sys=_SYS, **kw),
                         {"omega": 1.0, "x": _POINT, "value": 0.5, "grad4": _POINT})
       for ladder in (oscillator.ladder_explicit_value, oscillator.ladder_explicit_4d_value)},
    "rescaled_nodes": (lambda rate: transforms.rescaled_nodes(_RULE, rate), {"rate": 0.5}),
    "trust_momentum": (lambda omega: transforms.trust_momentum(_RULE, omega), {"omega": 1.1}),
    **{f.__name__: (lambda f=f, **kw: f(_PROFILE, rule=_RULE, **kw),
                    {"targets": _TARGET, "omega": 1.1})
       for f in (transforms.fourier_forward, transforms.fourier_inverse)},
    "fourier_forward1d": (lambda **kw: transforms.fourier_forward1d(_PHI, rule=_RULE, **kw),
                          {"targets": 0.4, "omega": 1.1}),
    "bargmann_transform": (lambda **kw: transforms.bargmann_transform(_PHI, rule=_RULE, **kw),
                           {"alpha": 0.4, "omega": 1.1}),
    "bargmann_of_state": (lambda alphas: transforms.bargmann_of_state(_STATE, alphas, _RULE),
                          {"alphas": _TARGET}),
    "fourier_of_state": (lambda targets: transforms.fourier_of_state(_STATE, targets, _RULE),
                         {"targets": _TARGET}),
    **{fd.__name__: (lambda fd=fd, **kw: fd(_FIELD, **kw), {"x": _POINT, "h": 1e-5})
       for fd in (verify.finite_difference_gradient4, verify.box4)},
    "run_invariance_suite": (lambda vmax: verify.run_invariance_suite(trials=2, vmax=vmax),
                             {"vmax": 0.5}),
    "run_pde_suite": (lambda sigma_perturb: verify.run_pde_suite(
        points=1, max_n=0, sigma_perturb=sigma_perturb), {"sigma_perturb": 0.0}),
}
SLOTS = [(name, slot) for name, (_, defaults) in ENTRIES.items() for slot in defaults]


def _finite(out) -> bool:
    """Whether out, a number, an array, a sequence or a dataclass of them, is finite."""
    if isinstance(out, verify.VerificationReport):
        return math.isfinite(out.max_abs_err)
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    return bool(np.isfinite(out).all())


def _cell(name: str, slot: str, value):
    """What the entry point gives with value in slot: None for a finite value or a
    ValueError, else a description of the breach."""
    call, defaults = ENTRIES[name]
    default = defaults[slot]
    args = {**defaults, slot: [value, *default[1:]] if isinstance(default, list) else value}
    try:
        out = call(**args)
    except ValueError:
        return None
    except Exception as err:  # any other exception, a warning too, is a breach
        return f"{type(err).__name__}: {err}"
    return None if _finite(out) else f"non-finite {out!r}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, slot", SLOTS, ids=[f"{name}-{slot}" for name, slot in SLOTS])
def test_every_numeric_slot_gives_a_finite_value_or_value_error(name, slot):
    breaches = {tag: why for tag, value in VALUES.items()
                if (why := _cell(name, slot, value)) is not None}
    assert not breaches


def test_every_entry_point_gives_a_finite_value_at_its_defaults():
    # so that a breach shows as one, and not as a ValueError at every value
    for name, (call, defaults) in ENTRIES.items():
        assert _finite(call(**defaults)), name
