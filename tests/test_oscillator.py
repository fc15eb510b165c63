import math

import numpy as np
import pytest

from rqcm.constraint import xi_directional_derivative
from rqcm.minkowski import (BoundSystem, FourVector, bound_system, eta_params,
                            general_boost, minkowski_dot, reduced_mass, rest_mass)
from rqcm.oscillator import (MAX_LEVEL, OscillatorState, QuantumNumbers, degeneracy,
                             ladder_apply, ladder_apply_explicit,
                             ladder_explicit_4d_value, ladder_explicit_value,
                             nr_spring_constant, oscillator_state, phi_1d, phi_1d_bargmann,
                             phi_1d_derivative, phi_1d_momentum, psi_bargmann,
                             psi_momentum, psi_position, psi_position_gradient,
                             quantum_numbers_at_level, sigma_n, states_up_to)
from rqcm.transforms import gauss_hermite, rescaled_nodes
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
# axis values that every axis entry point must refuse; a range test alone
# refuses those in _ALREADY_REFUSED, except in replace_axis, which had none
_BAD_AXES = {"bool": True, "numpy_bool": np.True_, "float": 1.0, "string": "1", "zero": 0,
             "negative": -1, "four": 4}
_ALREADY_REFUSED = ("string", "zero", "negative", "four")
_AXIS_STATE = oscillator_state((1, 0, 1), 1.0, 1.0, 1.3, (0.1, 0.2, 0.0))
_AXIS_CALLS = {
    "ladder_apply": lambda axis: ladder_apply("raise", axis, _AXIS_STATE),
    "ladder_explicit_value": lambda axis: ladder_explicit_value(
        "raise", axis, 1.0, _AXIS_STATE.sys, np.zeros(4), 1.0, np.ones(4)),
    "ladder_explicit_4d_value": lambda axis: ladder_explicit_4d_value(
        "raise", axis, 1.0, _AXIS_STATE.sys, np.zeros(4), 1.0, np.ones(4)),
    "ladder_apply_explicit": lambda axis: ladder_apply_explicit(
        "raise", axis, _AXIS_STATE, np.zeros(4)),
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
    **{f"{factor.__name__}_level_{tag}": (lambda factor=factor, l=l: factor(l, 1.0, 0.3))
       for factor in (phi_1d, phi_1d_momentum, phi_1d_derivative, phi_1d_bargmann)
       for tag, l in (("fractional", 1.5), ("bool", True), ("numpy_bool", np.True_))},
    "sigma_n_fractional_level": lambda: sigma_n(1.0, 1.5),
    "degeneracy_fractional_level": lambda: degeneracy(1.5),
    "quantum_numbers_fractional_level": lambda: quantum_numbers_at_level(1.5),
    "states_up_to_negative_level": lambda: states_up_to(-1, 1.0, 1.0, 1.0),
    "reduced_mass_opposite_masses": lambda: reduced_mass(1.0, -1.0),
    "reduced_mass_negative_m1": lambda: reduced_mass(-1.0, 2.0),
    "reduced_mass_overflow": lambda: reduced_mass(1e200, 1e200),
    "nr_spring_constant_negative_m1": lambda: nr_spring_constant(-1.0, 2.0, 1.0),
    "nr_spring_constant_m2_nan": lambda: nr_spring_constant(1.0, _NAN, 1.0),
    "sigma_n_level_beyond_float": lambda: sigma_n(1.0, 10 ** 400),
    "sigma_n_overflow": lambda: sigma_n(1e308, 10),
    **{f"{name}_axis_{tag}": (lambda call=call, axis=axis: call(axis))
       for name, call in _AXIS_CALLS.items() for tag, axis in _BAD_AXES.items()
       if name == "replace_axis" or tag not in _ALREADY_REFUSED},
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
    for call in _AXIS_CALLS.values():
        for tag in _ALREADY_REFUSED:
            with pytest.raises(ValueError, match="axis must be 1, 2 or 3"):
                call(_BAD_AXES[tag])
    st = _AXIS_STATE
    assert ladder_apply("raise", np.int64(2), st) == ladder_apply("raise", 2, st)
    assert QuantumNumbers(1, 2, 3).replace_axis(np.int64(2), 5) == QuantumNumbers(1, 5, 3)
    grad, x = np.array([0.3, -0.2, 0.7, 0.1]), np.array([0.4, 0.1, -0.5, 0.2])
    assert xi_directional_derivative(grad, np.int64(3), st.sys) == \
        xi_directional_derivative(grad, 3, st.sys)
    for explicit in (ladder_explicit_value, ladder_explicit_4d_value):
        assert explicit("lower", np.int64(1), 1.0, st.sys, x, 0.5, grad) == \
            explicit("lower", 1, 1.0, st.sys, x, 0.5, grad)


def test_an_integral_float_level_reads_as_that_level():
    for factor in (phi_1d, phi_1d_momentum, phi_1d_derivative, phi_1d_bargmann):
        assert factor(2.0, 1.3, 0.3) == factor(2, 1.3, 0.3)
    assert sigma_n(1.0, 2.0) == sigma_n(1.0, 2) and degeneracy(2.0) == degeneracy(2) == 6


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


def test_states_up_to_count():
    states = states_up_to(4, 1.0, 1.0, 1.3)
    assert len(states) == sum(degeneracy(n) for n in range(5)) == 35


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


@pytest.mark.parametrize("w", [0.0, -2.0, math.nan, math.inf])
def test_nr_spring_constant_needs_a_positive_finite_frequency(w):
    with pytest.raises(ValueError, match="positive and finite"):
        nr_spring_constant(1.0, 1.3, w)


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
                got = ladder_apply_explicit(direction, axis, st, x)
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
