"""Aim 3 as two tables: each real or vector slot of every public entry point, given in turn
each value of VALUES, gives a finite value or raises ValueError, with no warning; and each
integer slot (a level, an axis, a quadrature order, a suite's count, size, sign or seed),
given in turn each value of INTEGER_VALUES, gives a value or raises ValueError, with no
warning: ValueError for a bool, a float, a string, a list, an array or an int out of its
range, and for a numpy integer what its Python int gives.

A slot whose default is a list is a vector: the value takes its first entry. Any other
slot takes the value itself. A new entry point joins ENTRIES, or INTEGERS for an integer
slot. Out of scope: a non-number where a state, a rule or a callable belongs.
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


def _args(defaults: dict, slot: str, value) -> dict:
    """The defaults with value in slot; a vector slot takes it as its first entry."""
    default = defaults[slot]
    return {**defaults, slot: [value, *default[1:]] if isinstance(default, list) else value}


def _cell(name: str, slot: str, value):
    """What the entry point gives with value in slot: None for a finite value or a
    ValueError, else a description of the breach."""
    call, defaults = ENTRIES[name]
    try:
        out = call(**_args(defaults, slot, value))
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
    for table in (ENTRIES, INTEGERS):
        for name, (call, defaults) in table.items():
            assert _finite(call(**defaults)), name


# the narrow numpy integers overflowed their width inside a suite that computed with them:
# 8192 // (11 * np.uint8(2)), np.int8(20) * 11, np.uint8(30) * 48, np.int8(127) + 1
INTEGER_VALUES = {"2.0": 2.0, "2.5": 2.5, "True": True, "np.True_": np.True_,
                  "int64": np.int64(2), "uint8(2)": np.uint8(2), "int8(20)": np.int8(20),
                  "uint8(30)": np.uint8(30), "int8(127)": np.int8(127), "-1": -1,
                  "nan": math.nan, "inf": math.inf, "10**400": 10 ** 400, "'2'": "2",
                  "[2]": [2], "array(2)": np.array(2), "array([2])": np.array([2])}

# entry point -> (call taking keyword arguments, the integer slots and their defaults);
# the suites at their cheapest sizes
INTEGERS = {
    **{factor.__name__: (lambda l, factor=factor: factor(l, 1.1, 0.4), {"l": 2})
       for factor in (oscillator.phi_1d, oscillator.phi_1d_momentum,
                      oscillator.phi_1d_derivative, oscillator.phi_1d_bargmann)},
    "QuantumNumbers": (oscillator.QuantumNumbers, {"l1": 1, "l2": 2, "l3": 3}),
    "replace_axis": (lambda axis, value: oscillator.QuantumNumbers(1, 2, 3).replace_axis(
        axis, value), {"axis": 2, "value": 5}),
    "sigma_n": (lambda n: oscillator.sigma_n(1.1, n), {"n": 2}),
    "degeneracy": (oscillator.degeneracy, {"n": 2}),
    "quantum_numbers_at_level": (oscillator.quantum_numbers_at_level, {"n": 2}),
    "oscillator_state": (lambda l: oscillator.oscillator_state(l, 1.1, 1.0, 1.3),
                         {"l": [2, 0, 1]}),
    "ladder_apply": (lambda axis: oscillator.ladder_apply("raise", axis, _STATE), {"axis": 1}),
    **{ladder.__name__: (lambda axis, ladder=ladder: ladder("raise", axis, 1.0, _SYS, _POINT,
                                                            0.5, _POINT), {"axis": 1})
       for ladder in (oscillator.ladder_explicit_value, oscillator.ladder_explicit_4d_value)},
    "xi_directional_derivative": (lambda axis: constraint.xi_directional_derivative(
        _POINT, axis, _SYS), {"axis": 1}),
    "gauss_hermite": (transforms.gauss_hermite, {"order": 8}),
    "run_invariance_suite": (verify.run_invariance_suite, {"trials": 2, "seed": 0}),
    "run_pde_suite": (verify.run_pde_suite, {"points": 1, "max_n": 0, "seed": 0}),
    "run_ladder_suite": (verify.run_ladder_suite, {"points": 1, "max_n": 0, "seed": 0}),
    "run_nr_limit_suite": (verify.run_nr_limit_suite, {"seed": 0}),
    "run_transform_suite": (verify.run_transform_suite,
                            {"max_n": 0, "order": 32, "bargmann_sign": 1, "seed": 0}),
}
INTEGER_SLOTS = [(name, slot) for name, (_, defaults) in INTEGERS.items() for slot in defaults]


def _same(a, b) -> bool:
    """Whether a and b are equal with the same types all the way down (an int where an int
    is); reports by their JSON."""
    if type(a) is not type(b):
        return False
    if isinstance(a, verify.VerificationReport):
        return a.to_json() == b.to_json()
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return bool(a == b)


def _result(call, args: dict):
    """call(**args), or ValueError where it raises that."""
    try:
        return call(**args)
    except ValueError:
        return ValueError


# the Python ints of INTEGER_VALUES that a slot takes; every other slot refuses -1 and
# 10**400, and every slot refuses a value that is neither an int nor a numpy integer
_TAKEN = {"run_transform_suite-bargmann_sign": {-1}, "degeneracy-n": {10 ** 400},
          **{f"{name}-seed": {10 ** 400} for name, (_, defaults) in INTEGERS.items()
             if "seed" in defaults}}
# the pde and ladder suites overflow nothing at a max_n of 20 or 30 and only take long in
# range; uint8(2) and int8(127) stand for the narrow widths there
_LONG_CELLS = {(name, "max_n", tag) for name in ("run_pde_suite", "run_ladder_suite")
               for tag in ("int8(20)", "uint8(30)")}


def _integer_cell(name: str, slot: str, value):
    """None where the slot does with value what it should: a numpy integer what its Python
    int does, -1 or 10**400 a value where _TAKEN names it and ValueError elsewhere, any
    other value ValueError; else a description of the breach."""
    call, defaults = INTEGERS[name]
    try:
        got = _result(call, _args(defaults, slot, value))
        if isinstance(value, np.integer):
            if not _same(got, want := _result(call, _args(defaults, slot, int(value)))):
                return f"{got!r} where the int {int(value)} gives {want!r}"
        elif (got is ValueError) == (type(value) is int
                                      and value in _TAKEN.get(f"{name}-{slot}", ())):
            return f"{'refused' if got is ValueError else 'took'} {value!r}"
    except Exception as err:  # any other exception, a warning too, is a breach
        return f"{type(err).__name__}: {err}"
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, slot", INTEGER_SLOTS,
                         ids=[f"{name}-{slot}" for name, slot in INTEGER_SLOTS])
def test_every_integer_slot_gives_a_value_or_value_error(name, slot):
    breaches = {tag: why for tag, value in INTEGER_VALUES.items()
                if (name, slot, tag) not in _LONG_CELLS
                and (why := _integer_cell(name, slot, value)) is not None}
    assert not breaches
