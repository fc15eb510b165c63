import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rqcm
from rqcm import oscillator
from rqcm.constraint import xi_directional_derivative
from rqcm.minkowski import (BoundSystem, FourVector, bound_system, eta_params,
                            general_boost, minkowski_dot, perp_projection, reduced_mass,
                            rest_mass)
from rqcm.oscillator import (MAX_LEVEL, OscillatorState, QuantumNumbers, _hermite_levels,
                             degeneracy, ladder_apply, ladder_explicit_4d_value,
                             ladder_explicit_value, nr_spring_constant, oscillator_state,
                             phi_1d, phi_1d_bargmann, phi_1d_derivative, phi_1d_momentum,
                             psi_bargmann, psi_momentum, psi_position, psi_position_gradient,
                             quantum_numbers_at_level, sigma_n)
from rqcm.transforms import gauss_hermite, rescaled_nodes, trust_momentum
from rqcm.verify import finite_difference_gradient4


# ---------------------------------------------------------------------------
# special functions

def hermite(l: int, y):
    """Physicists' Hermite polynomial H_l via the three-term recurrence (test oracle)."""
    if l < 0:
        raise ValueError("Hermite index must be non-negative")
    y = np.asarray(y, dtype=float)
    h0 = np.ones_like(y)
    if l == 0:
        return h0 if h0.ndim else float(h0)
    h1 = 2.0 * y
    for k in range(1, l):
        h0, h1 = h1, 2.0 * y * h1 - 2.0 * k * h0
    return h1 if h1.ndim else float(h1)


def test_hermite_values():
    y = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(hermite(0, y), np.ones(7))
    assert hermite(2, 1.0) == 2.0
    assert hermite(3, 0.5) == -5.0
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


def test_phi_1d_values():
    assert abs(phi_1d(0, 1.0, 0.0) - math.pi ** -0.25) < 1e-15
    assert abs(phi_1d(0, 1.0, 0.0) - 0.7511255444649425) < 1e-15
    assert phi_1d(1, 2.3, 0.0) == 0.0


def test_phi_1d_against_direct_formula():
    rng = np.random.default_rng(30)
    om = 1.7
    xi = rng.uniform(-3, 3, 9)
    for l in range(16):
        direct = ((om / math.pi) ** 0.25 / math.sqrt(2.0 ** l * math.factorial(l))
                  * hermite(l, math.sqrt(om) * xi) * np.exp(-om * xi ** 2 / 2))
        np.testing.assert_allclose(phi_1d(l, om, xi), direct, rtol=1e-12, atol=1e-13)


def test_phi_1d_momentum_against_direct_formula():
    rng = np.random.default_rng(31)
    om = 0.8
    pi_ = rng.uniform(-2, 2, 9)
    for l in range(10):
        direct = ((1.0 / (om * math.pi)) ** 0.25 / math.sqrt(2.0 ** l * math.factorial(l))
                  * hermite(l, pi_ / math.sqrt(om)) * np.exp(-pi_ ** 2 / (2 * om)))
        np.testing.assert_allclose(phi_1d_momentum(l, om, pi_), direct, rtol=1e-12, atol=1e-13)


def test_phi_1d_validation():
    with pytest.raises(ValueError):
        phi_1d(0, -1.0, 0.0)
    with pytest.raises(ValueError):
        phi_1d(MAX_LEVEL + 1, 1.0, 0.0)


def test_phi_1d_normalisation_and_orthogonality():
    om = 1.3
    rule = gauss_hermite(64)
    pts, eff = rescaled_nodes(rule, om)
    for k in range(11):
        for l in range(k, 11):
            val = float(np.sum(eff * phi_1d(k, om, pts) * phi_1d(l, om, pts)))
            want = 1.0 if k == l else 0.0
            tol = 1e-10 if k == l else 1e-9
            assert abs(val - want) <= tol, (k, l, val)


def test_phi_1d_derivative_vs_finite_difference():
    om = 1.9
    h = 1e-6
    for l in (0, 1, 4, 9):
        for xi in (-1.3, 0.0, 0.4, 2.2):
            fd = (phi_1d(l, om, xi + h) - phi_1d(l, om, xi - h)) / (2 * h)
            assert abs(phi_1d_derivative(l, om, xi) - fd) < 1e-8


# ---------------------------------------------------------------------------
# quantum numbers, spectrum

def test_quantum_numbers_validation():
    q = QuantumNumbers(1, 2, 3)
    assert q.n == 6
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(0, MAX_LEVEL + 1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(0.5, 0, 0)


_NAN, _INF = math.nan, math.inf
# axis values just outside [1, 3], which every axis entry point must refuse; the integer
# table of tests/test_contract.py holds the other kinds of bad value
_BAD_AXES = {"zero": 0, "four": 4}
_AXIS_STATE = oscillator_state((1, 0, 1), 1.0, 1.0, 1.3, (0.1, 0.2, 0.0))
_AXIS_CALLS = {
    "ladder_apply": lambda axis: ladder_apply("raise", axis, _AXIS_STATE),
    "ladder_explicit_value": lambda axis: ladder_explicit_value(
        "raise", axis, 1.0, _AXIS_STATE.sys, np.zeros(4), 1.0, np.ones(4)),
    "ladder_explicit_4d_value": lambda axis: ladder_explicit_4d_value(
        "raise", axis, 1.0, _AXIS_STATE.sys, np.zeros(4), 1.0, np.ones(4)),
    # the composition that was ladder_apply_explicit, under that name's test ids
    "ladder_apply_explicit": lambda axis: ladder_explicit_value(
        "raise", axis, 1.0, _AXIS_STATE.sys, np.zeros(4), psi_position(_AXIS_STATE, np.zeros(4)),
        psi_position_gradient(_AXIS_STATE, np.zeros(4))),
    "replace_axis": lambda axis: QuantumNumbers(1, 2, 3).replace_axis(axis, 5),
    "xi_directional_derivative": lambda axis: xi_directional_derivative(
        np.ones(4), axis, _AXIS_STATE.sys),
}
_MOVING_STATE = oscillator_state((1, 0, 0), 1.0, 1.0, 1.3, (0.3, 0, 0))
_INVALID_INPUTS = {
    "v_nan": lambda: bound_system(1, 1, 0, (_NAN, 0, 0)),
    "v_inf": lambda: bound_system(1, 1, 0, (_INF, 0, 0)),
    "boost_v_nan": lambda: general_boost(FourVector(0, 0, 0, 1), (0, _NAN, 0)),
    "sigma_nan": lambda: bound_system(1, 1, _NAN),
    "rest_mass_m1_inf": lambda: rest_mass(_INF, 1, 0),
    "rest_mass_m2_nan": lambda: rest_mass(1, _NAN, 0),
    "rest_mass_overflow": lambda: rest_mass(1e200, 1, 0),
    "rest_mass_underflow": lambda: rest_mass(1e-200, 1e-200, 0),
    "eta_M0_nan": lambda: eta_params(1, 1, _NAN),
    "eta_M0_negative": lambda: eta_params(1, 1, -2),
    "eta_m1_inf": lambda: eta_params(_INF, 1, 2),
    "eta_M0_square_underflow": lambda: eta_params(1, 2, 1e-200),
    "state_omega_nan": lambda: oscillator_state((0, 0, 0), _NAN, 1, 1),
    "state_omega_inf": lambda: oscillator_state((0, 0, 0), _INF, 1, 1),
    "state_m1_inf": lambda: oscillator_state((0, 0, 0), 1, _INF, 1),
    "state_direct_omega_nan": lambda: OscillatorState(QuantumNumbers(0, 0, 0), _NAN,
                                                      bound_system(1, 1, 1.5)),
    "sigma_n_omega_nan": lambda: sigma_n(_NAN, 0),
    "phi_omega_nan": lambda: phi_1d(0, _NAN, 0.3),
    "phi_momentum_omega_inf": lambda: phi_1d_momentum(0, _INF, 0.3),
    "phi_bargmann_omega_zero": lambda: phi_1d_bargmann(0, 0.0, 0.3),
    "quantum_bool": lambda: QuantumNumbers(True, 0, 0),
    "quantum_numpy_bool": lambda: QuantumNumbers(0, np.True_, 0),
    "quantum_inf": lambda: QuantumNumbers(0, _INF, 0),
    "quantum_nan": lambda: QuantumNumbers(0, 0, _NAN),
    "quantum_string": lambda: QuantumNumbers("1", 0, 0),
    "quantum_complex": lambda: QuantumNumbers(0, 1 + 0j, 0),
    "phi_level_string": lambda: phi_1d("2", 1.0, 0.3),
    "sigma_n_level_list": lambda: sigma_n(1.0, [1]),
    "complex_P": lambda: BoundSystem(1, 1, 0, 2, 0.5, 0.5, FourVector(0, 0, 0, 2 + 0j)),
    "nan_P": lambda: BoundSystem(1, 1, 0, 2, 0.5, 0.5, FourVector(_NAN, 0, 0, 2)),
    "sigma_n_fractional_level": lambda: sigma_n(1.0, 1.5),
    "degeneracy_fractional_level": lambda: degeneracy(1.5),
    "quantum_numbers_fractional_level": lambda: quantum_numbers_at_level(1.5),
    "degeneracy_negative_level": lambda: degeneracy(-1),
    "quantum_numbers_negative_level": lambda: quantum_numbers_at_level(-1),
    "reduced_mass_opposite_masses": lambda: reduced_mass(1.0, -1.0),
    "reduced_mass_negative_m1": lambda: reduced_mass(-1.0, 2.0),
    "reduced_mass_overflow": lambda: reduced_mass(1e200, 1e200),
    "nr_spring_constant_negative_m1": lambda: nr_spring_constant(-1.0, 2.0, 1.0),
    "nr_spring_constant_m2_nan": lambda: nr_spring_constant(1.0, _NAN, 1.0),
    "sigma_n_level_beyond_float": lambda: sigma_n(1.0, 10 ** 400),
    "sigma_n_overflow": lambda: sigma_n(1e308, 10),
    **{f"replace_axis_axis_{tag}": (lambda axis=axis: _AXIS_CALLS["replace_axis"](axis))
       for tag, axis in _BAD_AXES.items()},
    # one system's number is one number: an array mass raised TypeError, a bool sigma read as 1.0
    "bound_system_array_m1": lambda: bound_system(np.array([1.0]), 1.0),
    "state_array_m1": lambda: oscillator_state((0, 0, 0), 1.1, np.array([1.0]), 1.3),
    "bound_system_bool_sigma": lambda: bound_system(1.0, 1.0, True),
    "rest_mass_bool_sigma": lambda: rest_mass(1.0, 1.0, True),
    # a 4-vector component is one number in the float range (OverflowError and TypeError)
    "four_vector_beyond_float": lambda: FourVector(10 ** 400, 0, 0, 0),
    "four_vector_array_component": lambda: FourVector(np.array([1.0]), 0, 0, 0),
    # a bool is not a number in a vector either
    "four_vector_bool_component": lambda: FourVector(True, 0, 0, 0),
    "phi_bool_argument": lambda: phi_1d(0, 1.0, np.array([True, False])),
    "rest_mass_m1_beyond_float": lambda: rest_mass(10 ** 400, 1, 0),
    "rest_mass_sigma_beyond_float": lambda: rest_mass(1, 1, 10 ** 400),
    "bound_system_m1_beyond_float": lambda: bound_system(10 ** 400, 1),
    "eta_m1_beyond_float": lambda: eta_params(10 ** 400, 1, 2.0),
    "phi_bargmann_overflow": lambda: phi_1d_bargmann(64, 1.0, 1e10),
    "psi_bargmann_overflow": lambda: psi_bargmann(oscillator_state((64, 0, 0), 1.0, 1.0, 1.3),
                                                  FourVector(1e10, 0, 0, 0)),
    # finite factors, about 2.8e211 each, whose product overflows
    "psi_bargmann_product_overflow": lambda: psi_bargmann(
        oscillator_state((64, 64, 0), 1.0, 1.0, 1.3), FourVector(1e4, 1e4, 0, 0)),
    "psi_bargmann_product_overflow_in_a_stack": lambda: psi_bargmann(
        oscillator_state((64, 64, 0), 1.0, 1.0, 1.3),
        np.array([[0.1, 0.2, 0.0, 0.0], [1e4, 1e4, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])),
    # P.X overflows, so the centre-of-mass phase exp(i P.X) is not finite
    **{f"{psi.__name__}_phase_overflow{tag}":
       (lambda psi=psi, x=x, X=X: psi(_MOVING_STATE, x, X))
       for psi in (psi_position, psi_momentum, psi_position_gradient)
       for tag, x, X in (("", FourVector(0.1, 0, 0, 0), FourVector(1e308, 0, 0, 1e308)),
                         ("_in_a_stack", np.array([[0.1, 0, 0, 0]] * 3),
                          np.array([[0, 0, 0, 1.0], [1e308, 0, 0, 1e308], [0.5, 0, 0, 2.0]])))},
}


@pytest.mark.parametrize("call", _INVALID_INPUTS.values(), ids=_INVALID_INPUTS.keys())
def test_invalid_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_an_axis_is_1_2_or_3_and_may_be_a_numpy_integer():
    message = r"axis must be an integer in \[1, 3\], got "
    for call in _AXIS_CALLS.values():
        for axis in _BAD_AXES.values():
            with pytest.raises(ValueError, match=f"{message}{axis}"):
                call(axis)
    st = _AXIS_STATE
    assert ladder_apply("raise", np.int64(2), st) == ladder_apply("raise", 2, st)
    assert QuantumNumbers(1, 2, 3).replace_axis(np.int64(2), 5) == QuantumNumbers(1, 5, 3)
    grad, x = np.array([0.3, -0.2, 0.7, 0.1]), np.array([0.4, 0.1, -0.5, 0.2])
    assert xi_directional_derivative(grad, np.int64(3), st.sys) == \
        xi_directional_derivative(grad, 3, st.sys)
    for explicit in (ladder_explicit_value, ladder_explicit_4d_value):
        assert explicit("lower", np.int64(1), 1.0, st.sys, x, 0.5, grad) == \
            explicit("lower", 1, 1.0, st.sys, x, 0.5, grad)


def test_an_integral_float_level_is_refused():
    # 2.0 read as the level 2 here, where an axis, a count and an order refused it
    for call in (*(lambda l, f=f: f(l, 1.3, 0.3) for f in (phi_1d, phi_1d_momentum,
                                                          phi_1d_derivative, phi_1d_bargmann)),
                 lambda l: sigma_n(1.0, l), degeneracy, quantum_numbers_at_level,
                 lambda l: QuantumNumbers(l, 0, 0)):
        with pytest.raises(ValueError, match=r"must be an integer (in \[0, .*\]|>= 0), got 2\.0$"):
            call(2.0)


def test_bargmann_factor_is_the_monomial_for_every_spring_constant():
    alpha = np.array([0.3 + 0.4j, -1.2, 2.0j])
    for l in range(9):
        want = alpha ** l / math.sqrt(math.factorial(l))
        for om in (0.4, 1.0, 2.7):
            assert np.array_equal(phi_1d_bargmann(l, om, alpha), want)
        single = phi_1d_bargmann(l, 1.0, 0.7 - 0.2j)
        assert type(single) is complex and abs(single - (0.7 - 0.2j) ** l / math.sqrt(
            math.factorial(l))) <= 1e-15 * max(1.0, abs(single))
    assert phi_1d_bargmann(1, 1.0, 0.5) == 0.5 + 0j


def test_degeneracy_matches_enumeration():
    for n in range(11):
        assert degeneracy(n) == len(quantum_numbers_at_level(n)) == (n + 1) * (n + 2) // 2


def test_sigma_n():
    assert sigma_n(1.0, 0) == 1.5
    assert sigma_n(2.0, 3) == 9.0
    for n in range(8):
        assert sigma_n(1.7, n + 1) - sigma_n(1.7, n) == pytest.approx(1.7, abs=1e-13)
    with pytest.raises(ValueError):
        sigma_n(-1.0, 0)
    with pytest.raises(ValueError):
        sigma_n(1.0, -1)


def test_oscillator_state_factory_and_validation():
    st = oscillator_state((1, 0, 2), 1.5, 1.0, 2.0, (0.1, 0.0, -0.2))
    assert st.sigma == sigma_n(1.5, 3)
    np.testing.assert_allclose(st.sys.velocity, [0.1, 0.0, -0.2], atol=1e-12)
    bad_sys = bound_system(1.0, 2.0, 0.123)
    with pytest.raises(ValueError):
        OscillatorState(QuantumNumbers(0, 0, 0), 1.5, bad_sys)


# ---------------------------------------------------------------------------
# wave functions

def test_psi_position_ground_value():
    om = 1.0
    st = oscillator_state((0, 0, 0), om, 1.0, 1.0)
    val = psi_position(st, FourVector(0, 0, 0, 0), FourVector(0, 0, 0, 0))
    assert abs(val - (om / math.pi) ** 0.75) < 1e-15


def test_psi_position_phase_modulus_independent_of_X():
    st = oscillator_state((1, 0, 1), 0.9, 1.0, 1.2, (0.3, 0.0, 0.1))
    x = FourVector(0.5, -0.3, 0.2, 0.6)
    X = FourVector(1.0, 2.0, -0.5, 0.7)
    a = psi_position(st, x, X)
    b = psi_position(st, x)
    assert abs(abs(a) - abs(b)) < 1e-15
    phase = complex(np.exp(1j * minkowski_dot(st.sys.P, X)))
    assert abs(a - b * phase) < 1e-14


def test_psi_position_frame_equivalence():
    om = 1.1
    rng = np.random.default_rng(32)
    rest = oscillator_state((2, 1, 0), om, 1.0, 1.4)
    for _ in range(20):
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
        moving = OscillatorState(rest.q, om, rest.sys.boosted(v))
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        X = FourVector.from_components(rng.uniform(-2, 2, 4))
        a = psi_position(rest, x, X)
        b = psi_position(moving, general_boost(x, v), general_boost(X, v))
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-3)


def test_psi_momentum_values():
    om = 1.7
    st = oscillator_state((0, 0, 0), om, 1.0, 1.0)
    val = psi_momentum(st, FourVector(0, 0, 0, 0), FourVector(0, 0, 0, 0))
    assert abs(val - (1.0 / (om * math.pi)) ** 0.75) < 1e-15
    st1 = oscillator_state((1, 0, 0), om, 1.0, 1.0)
    assert psi_momentum(st1, FourVector(0, 0.4, -0.2, 0.9)) == 0.0


def test_psi_bargmann_values():
    st0 = oscillator_state((0, 0, 0), 1.2, 1.0, 1.1, (0.2, 0.1, 0.0))
    a = FourVector(0.3 + 0.4j, -1.0, 0.2j, 0.5)
    X = FourVector(0.3, 0.0, -0.2, 1.0)
    phase = complex(np.exp(1j * minkowski_dot(st0.sys.P, X)))
    assert abs(psi_bargmann(st0, a, X) - phase) < 1e-14

    st1 = oscillator_state((1, 0, 0), 1.2, 1.0, 1.0)
    z = 0.7 - 0.2j
    got = psi_bargmann(st1, FourVector(z, 0, 0, 0))
    assert abs(got - z) < 1e-15


def test_psi_position_gradient_vs_finite_difference():
    st = oscillator_state((1, 2, 0), 1.3, 1.0, 1.5, (0.2, -0.4, 0.1))
    rng = np.random.default_rng(33)
    for _ in range(10):
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        got = psi_position_gradient(st, x)
        fd = finite_difference_gradient4(lambda pt: psi_position(st, pt), x)
        np.testing.assert_allclose(got, fd, atol=1e-8)


# ---------------------------------------------------------------------------
# ladder operators

def test_ladder_apply_coefficients():
    st = oscillator_state((1, 0, 0), 1.0, 1.0, 1.0)
    coeff, lowered = ladder_apply("lower", 1, st)
    assert coeff == 1.0
    assert lowered.q.as_tuple() == (0, 0, 0)
    assert lowered.sigma == sigma_n(1.0, 0)

    coeff, raised = ladder_apply("raise", 2, lowered)
    assert coeff == 1.0
    assert raised.q.as_tuple() == (0, 1, 0)

    coeff, annihilated = ladder_apply("lower", 3, lowered)
    assert coeff == 0.0 and annihilated is None


def test_ladder_round_trip_number_operator():
    st = oscillator_state((2, 3, 1), 1.0, 1.0, 1.3)
    for axis, li in zip((1, 2, 3), st.q.as_tuple()):
        c_up, raised = ladder_apply("raise", axis, st)
        c_down, back = ladder_apply("lower", axis, raised)
        assert c_up * c_down == pytest.approx(li + 1, abs=1e-13)
        assert back.q == st.q and back.sigma == st.sigma


def test_ladder_validation():
    st = oscillator_state((0, 0, 0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ladder_apply("up", 1, st)
    with pytest.raises(ValueError):
        ladder_apply("raise", 4, st)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [0.25, 1.0, 4.0, 1e-300, 1e300])
@pytest.mark.parametrize("factor", [phi_1d, phi_1d_momentum, phi_1d_derivative])
def test_factors_near_the_float_maximum_are_zero(factor, omega):
    # every level underflows to 0 past |y| = 38.6; the argument is clipped before it is
    # scaled, so no warning and no nan up to the float maximum
    for l in (0, 1, 64):
        for xi in (1.7e308, -1.7e308, 1e300, 1e160):
            assert factor(l, omega, xi) == 0.0
        out = factor(l, omega, np.array([-1.7e308, 0.5, 1.7e308]))
        assert out[0] == out[2] == 0.0 and out[1] == factor(l, omega, 0.5)


@pytest.mark.parametrize("omega", [0.25, 1.0, 4.0])
def test_the_clip_moves_no_value_short_of_it(omega):
    # the factors' bits are the recurrence's at the scaled argument, as without the clip
    xi = np.concatenate([np.linspace(-60.0, 60.0, 241), [1e-300, -2.5e-3, 37.9]])
    root = math.sqrt(omega)
    for l in (0, 3, 64):
        assert phi_1d(l, omega, xi).tobytes() == (
            omega ** 0.25 * _hermite_levels(l, root * xi)[l]).tobytes()
        assert phi_1d_momentum(l, omega, xi).tobytes() == (
            omega ** -0.25 * _hermite_levels(l, xi / root)[l]).tobytes()


def _listed_levels(top: int, y) -> list:
    """The reference recurrence: one fresh array per level, each level out of place."""
    y = np.asarray(y, dtype=float)
    levels = [np.pi ** -0.25 * np.exp(-0.5 * y * y)]
    if top > 0:
        levels.append(math.sqrt(2.0) * y * levels[0])
    for k in range(1, top):
        levels.append(math.sqrt(2.0 / (k + 1)) * y * levels[k]
                      - math.sqrt(k / (k + 1)) * levels[k - 1])
    return levels


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


# Hermite arguments as _clipped gives them: random values, the clip edges +-1e150 and
# +-inf (which clip to them), signed zeros, and values past the underflow at 38.6
_EDGES = [0.0, -0.0, 1e-300, 38.6, -39.0, 1e150, -1e150, math.inf, -math.inf]
_ARGUMENTS = np.concatenate([np.random.default_rng(30).uniform(-40.0, 40.0, 291), _EDGES])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("top", [0, 1, 2, 64])
@pytest.mark.parametrize("shape", [(), (1,), (300,), (2, 3, 5)], ids=str)
def test_the_level_table_has_the_bits_of_the_listed_recurrence(top, shape):
    y = oscillator._clipped(_ARGUMENTS, 1.0)
    if shape == ():  # numpy scalars, as _clipped gives one argument, Python floats, 0-d arrays
        args = [*y, *y.tolist(), *map(np.array, y)]
    elif shape == (1,):
        args = [y[i:i + 1] for i in range(y.size)]
    else:
        args = [y[:math.prod(shape)].reshape(shape)]
    for arg in args:
        got = _hermite_levels(top, arg)
        want = np.array(_listed_levels(top, arg))
        assert type(got) is np.ndarray and got.shape == (top + 1, *np.shape(arg))
        assert (_bits(got) == _bits(want)).all()
    # the clip edges and the infinities give exactly 0 at every level
    assert not _hermite_levels(top, oscillator._clipped(_EDGES[-4:], 1.0)).any()
    for edge in _EDGES[-4:]:
        assert not _hermite_levels(top, oscillator._clipped(edge, 1.0)).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("top", [0, 1, 2, 64])
@pytest.mark.parametrize("omega", [0.3, 1.0, 2.7])
@pytest.mark.parametrize("sign, factor", [(+1, phi_1d), (-1, phi_1d_momentum)],
                         ids=["position", "momentum"])
def test_table_rows_have_the_bits_of_their_factors(sign, factor, omega, top):
    t = _ARGUMENTS[:-2]  # a table refuses infinite targets
    table = oscillator._factor_table(sign, top, omega, t)
    assert table.shape == (top + 1, t.size)
    for l, row in enumerate(table):
        assert (_bits(row) == _bits(factor(l, omega, t))).all()
    for v in (0.7, -3.1, 1e150):  # one target alone
        column = oscillator._factor_table(sign, top, omega, v)
        assert (_bits(column) == _bits([factor(l, omega, v) for l in range(top + 1)])).all()


@pytest.mark.parametrize("order", [1, 2, 48, 256])
def test_the_projector_has_the_bits_of_the_listed_recurrence(order):
    rule = gauss_hermite(order)
    want = np.array(_listed_levels(order - 1, rule.nodes)) * (
        rule.weights * np.exp(rule.nodes ** 2))
    assert (_bits(rule.projector) == _bits(want)).all()
    assert not rule.projector.flags.writeable


def test_a_table_is_written_in_place():
    # the traced peak of a 64-level table at 20,000 points stays near the table itself:
    # a list of levels stacked into one array holds two tables at once
    t = np.linspace(-12.0, 12.0, 20_000)
    oscillator._factor_table(+1, 63, 1.0, t[:10])  # imports and caches warm
    tracemalloc.start()
    try:
        table = oscillator._factor_table(+1, 63, 1.0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes
    # a single level is its own array: it does not keep the whole table alive
    for out in (phi_1d(63, 1.0, t), phi_1d_momentum(63, 1.0, t), phi_1d_derivative(63, 1.0, t)):
        assert out.base is None or out.base.nbytes == out.nbytes


def test_position_near_the_float_maximum_is_zero_under_w_error():
    # the whole interpreter turns warnings into errors, as python -W error does
    src = str(Path(rqcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("from rqcm import *\n"
             "for f in (phi_1d, phi_1d_momentum, phi_1d_derivative):\n"
             "    for om in (0.25, 1.0, 4.0):\n"
             "        assert f(64, om, 1.7e308) == f(64, om, -1.7e308) == 0.0\n"
             "st = oscillator_state((64, 0, 0), 1.0, 1.0, 1.3)\n"
             "x = FourVector(1.7e308, 0, 0, 0)\n"
             "assert psi_position(st, x) == 0 and not psi_position_gradient(st, x).any()\n")
    subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env, check=True)


@pytest.mark.parametrize("w", [0.0, -2.0, math.nan, math.inf])
def test_nr_spring_constant_needs_a_positive_finite_frequency(w):
    with pytest.raises(ValueError, match="positive and finite"):
        nr_spring_constant(1.0, 1.3, w)


# complex arguments of the real-only entry points: a factor's argument (a scalar and an
# array), a psi_* point (an array and a FourVector) and a centre-of-mass position X
_COMPLEX_POINTS = {"array": np.array([[0.3 + 0.1j, 0.2, 0.1, 0.0]]),
                   "FourVector": FourVector(0.3 + 0.1j, 0.2, 0.1, 0.0)}
_COMPLEX_INPUTS = {
    **{f"{factor.__name__}_{tag}": (lambda factor=factor, xi=xi: factor(2, 1.3, xi))
       for factor in (phi_1d, phi_1d_momentum, phi_1d_derivative)
       for tag, xi in (("scalar", 0.3 + 0.1j), ("array", np.array([0.5, 0.3 + 0.1j])))},
    **{f"{psi.__name__}_{tag}": (lambda psi=psi, x=x: psi(_MOVING_STATE, x))
       for psi in (psi_position, psi_momentum, psi_position_gradient)
       for tag, x in _COMPLEX_POINTS.items()},
    **{f"{psi.__name__}_X": (lambda psi=psi: psi(_MOVING_STATE, np.zeros(4),
                                                 np.array([0.3 + 2j, 0.0, 0.0, 0.0])))
       for psi in (psi_position, psi_momentum, psi_position_gradient, psi_bargmann)},
}


@pytest.mark.parametrize("call", _COMPLEX_INPUTS.values(), ids=_COMPLEX_INPUTS.keys())
def test_complex_input_where_real_is_required_raises(call):
    with pytest.raises(ValueError, match="must be real"):
        call()
    # Bargmann points are complex: the same points give the Bargmann value
    for x in _COMPLEX_POINTS.values():
        alpha = np.ravel(rqcm.constraint_coordinates(x, _MOVING_STATE.sys))
        assert np.ravel(psi_bargmann(_MOVING_STATE, x)) == pytest.approx([alpha[0]], abs=1e-15)


# NaN arguments of the same entry points: a factor's argument (a scalar, and one entry
# of an array) and a psi_* point (an array and a FourVector)
_NAN_INPUTS = {
    **{f"{factor.__name__}_{tag}": (lambda factor=factor, xi=xi: factor(1, 1.0, xi))
       for factor in (phi_1d, phi_1d_momentum, phi_1d_derivative)
       for tag, xi in (("scalar", math.nan), ("array", np.array([0.5, math.nan])))},
    **{f"{psi.__name__}_{tag}": (lambda psi=psi, x=x: psi(_MOVING_STATE, x))
       for psi in (psi_position, psi_momentum, psi_position_gradient)
       for tag, x in (("array", np.array([[0.1, 0.2, 0.3, 0.0], [math.nan, 0.0, 0.0, 0.0]])),
                      ("FourVector", FourVector(math.nan, 0.0, 0.0, 0.0)))},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", _NAN_INPUTS.values(), ids=_NAN_INPUTS.keys())
def test_nan_arguments_raise(call):
    with pytest.raises(ValueError, match="must not be NaN"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [phi_1d, phi_1d_momentum, phi_1d_derivative])
@pytest.mark.parametrize("l", [0, 1, 64])
def test_infinite_arguments_give_exactly_zero(factor, l):
    assert factor(l, 1.3, math.inf) == 0 and factor(l, 1.3, -math.inf) == 0
    got = factor(l, 1.3, np.array([-math.inf, math.inf]))
    assert got.tolist() == [0.0, 0.0]


# non-finite points of every psi_*: an infinite component, in a FourVector, an array and
# one row of a stack, and a finite point whose constraint coordinates overflow
_NON_FINITE_POINTS = {"inf_FourVector": FourVector(math.inf, 0.0, 0.0, 0.0),
                      "minus_inf_time": np.array([0.0, 0.0, 0.0, -math.inf]),
                      "inf_in_a_stack": np.array([[0.1, 0.2, 0.0, 0.0], [math.inf, 0, 0, 0]]),
                      "overflowing_coordinates": FourVector(1.79e308, 0.0, 0.0, 1.0)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", _NON_FINITE_POINTS.values(), ids=_NON_FINITE_POINTS.keys())
@pytest.mark.parametrize("psi", [psi_position, psi_momentum, psi_position_gradient,
                                 psi_bargmann])
def test_non_finite_points_raise(psi, x):
    with pytest.raises(ValueError, match="non-finite (4-vector|constraint coordinates)"):
        psi(_MOVING_STATE, x)


_INFINITE_POINTS = {**{tag: x for tag, x in _NON_FINITE_POINTS.items()
                       if tag != "overflowing_coordinates"},
                    "nan_in_a_stack": np.array([[0.1, 0.2, 0.0, 0.0], [0.0, math.nan, 0, 0]])}
_POINT_MAPS = {
    "perp_projection": lambda x: perp_projection(x, _MOVING_STATE.sys.P, _MOVING_STATE.sys.M0),
    **{f"{explicit.__name__}_{direction}": (
        lambda x, explicit=explicit, direction=direction, value=value: explicit(
            direction, 1, 1.0, _MOVING_STATE.sys, x, value, np.zeros(4)))
       for explicit in (ladder_explicit_value, ladder_explicit_4d_value)
       for direction, value in (("raise", 1.0), ("lower", 0.0))},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", _INFINITE_POINTS.values(), ids=_INFINITE_POINTS.keys())
@pytest.mark.parametrize("call", _POINT_MAPS.values(), ids=_POINT_MAPS.keys())
def test_projection_and_explicit_ladders_refuse_non_finite_points(call, x):
    # numpy warned "invalid value encountered in multiply" here, then gave NaN
    with pytest.raises(ValueError, match="non-finite 4-vector"):
        call(x)
    assert np.all(np.isfinite(np.asarray(call(np.full(4, 0.3)), dtype=complex)))


_OMEGA_CALLS = {
    "ladder_explicit_value": lambda om: ladder_explicit_value(
        "raise", 1, om, _MOVING_STATE.sys, np.zeros(4), 1.0, np.zeros(4)),
    "ladder_explicit_4d_value": lambda om: ladder_explicit_4d_value(
        "lower", 2, om, _MOVING_STATE.sys, np.zeros(4), 1.0, np.zeros(4)),
    "trust_momentum": lambda om: trust_momentum(gauss_hermite(16), om),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [math.inf, 0.0, math.nan, -1.0, -math.inf])
@pytest.mark.parametrize("call", _OMEGA_CALLS.values(), ids=_OMEGA_CALLS.keys())
def test_explicit_ladders_and_trust_momentum_need_a_positive_finite_spring_constant(call, omega):
    with pytest.raises(ValueError, match="spring constant must be positive and finite"):
        call(omega)
    assert np.all(np.isfinite(call(1.0)))


def test_ladder_explicit_rest_frame_is_schrodinger_form():
    # with P = 0 and Omega = m_r w the operator coefficients match the
    # Schroedinger ladder exactly
    m1, m2, w = 1.0, 1.3, 0.9
    om = nr_spring_constant(m1, m2, w)
    assert abs(om - (m1 * m2 / (m1 + m2)) * w) < 1e-15
    st = oscillator_state((1, 1, 0), om, m1, m2)
    rng = np.random.default_rng(34)
    for _ in range(10):
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        value = psi_position(st, x)
        grad = psi_position_gradient(st, x)
        for direction, sgn in (("raise", +1), ("lower", -1)):
            got = ladder_explicit_value(direction, 1, om, st.sys, x, value, grad)
            schrod = (-sgn * grad[0] + om * x.c1 * value) / math.sqrt(2 * om)
            assert got == schrod


def test_ladder_explicit_matches_coefficients_boosted():
    rng = np.random.default_rng(35)
    st = oscillator_state((1, 0, 2), 1.0, 1.0, 1.3, (0.4, -0.3, 0.55))
    for direction in ("lower", "raise"):
        for axis in (1, 2, 3):
            coeff, new_state = ladder_apply(direction, axis, st)
            for _ in range(6):
                x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
                got = ladder_explicit_value(direction, axis, st.omega, st.sys, x,
                                            psi_position(st, x), psi_position_gradient(st, x))
                want = 0.0 if new_state is None else coeff * psi_position(new_state, x)
                assert abs(got - want) <= 1e-12


def ladder_finite_difference(direction, axis, state, x):
    """The explicit ladder operator on the state's wave function at x, with the
    finite-difference gradient in place of the closed form."""
    field = lambda pt: psi_position(state, pt)
    return ladder_explicit_value(direction, axis, state.omega, state.sys, x, field(x),
                                 finite_difference_gradient4(field, x))


def test_ladder_explicit_finite_difference_and_annihilation():
    rng = np.random.default_rng(36)
    ground = oscillator_state((0, 0, 0), 1.0, 1.0, 1.3, (0.0, 0.6, 0.0))
    excited = oscillator_state((1, 0, 0), 1.0, 1.0, 1.3, (0.0, 0.6, 0.0))
    coeff, lowered = ladder_apply("lower", 1, excited)
    for _ in range(20):
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        got0 = ladder_finite_difference("lower", 2, ground, x)
        assert abs(got0) <= 1e-8
        got1 = ladder_finite_difference("lower", 1, excited, x)
        want = coeff * psi_position(lowered, x)
        assert abs(got1 - want) <= 1e-5


def test_ladder_4d_decomposition_agrees():
    rng = np.random.default_rng(37)
    st = oscillator_state((2, 1, 1), 1.2, 1.0, 1.6, (0.3, 0.2, -0.5))
    for _ in range(10):
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        value = psi_position(st, x)
        grad = psi_position_gradient(st, x)
        for direction in ("lower", "raise"):
            for axis in (1, 2, 3):
                a = ladder_explicit_value(direction, axis, st.omega, st.sys, x, value, grad)
                b = ladder_explicit_4d_value(direction, axis, st.omega, st.sys, x, value, grad)
                assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


# ---------------------------------------------------------------------------
# field equations

def test_cm_wave_equation_exact_and_finite_difference():
    st = oscillator_state((1, 0, 0), 1.0, 1.0, 1.2, (0.0, 0.0, 0.6))
    sys = st.sys
    # the plane-wave phase satisfies the equation identically on shell
    assert abs(-minkowski_dot(sys.P, sys.P) - sys.M0 ** 2) <= 1e-12 * sys.M0 ** 2

    x = FourVector(0.3, -0.2, 0.5, 0.1)
    base = psi_position(st, x)
    phase = lambda X: complex(np.exp(1j * minkowski_dot(sys.P, X))) * base
    X0 = FourVector(0.7, -1.1, 0.4, 0.9)
    lap = 0.0
    for mu in range(4):
        h = 1e-4 * max(1.0, abs(X0.components[mu]))
        up = X0.components.copy(); up[mu] += h
        dn = X0.components.copy(); dn[mu] -= h
        d2 = (phase(FourVector.from_components(up)) - 2 * phase(X0)
              + phase(FourVector.from_components(dn))) / h ** 2
        lap += d2 if mu < 3 else -d2
    want = sys.M0 ** 2 * phase(X0)
    assert abs(lap - want) <= 1e-6 * abs(want)


def test_transversality_condition():
    # P^mu d_mu psi = 0 pointwise for the internal factor, finite differences
    rng = np.random.default_rng(38)
    st = oscillator_state((1, 1, 0), 1.0, 1.0, 1.4, (0.5, -0.3, 0.4))
    P = st.sys.P
    for _ in range(100):
        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        grad = finite_difference_gradient4(lambda pt: psi_position(st, pt), x)
        resid = abs(P.spatial @ grad[:3] + P.c4 * grad[3])
        scale = max(np.linalg.norm(P.components) * np.linalg.norm(np.abs(grad)), 1e-3)
        assert resid <= 1e-5 * scale


def test_internal_equation_analytic_rest_frame():
    from rqcm.verify import run_pde_suite
    report = run_pde_suite(points=10, mode="analytic", max_n=4)
    assert report.passed, report.max_rel_err
    assert report.max_rel_err <= 1e-10
