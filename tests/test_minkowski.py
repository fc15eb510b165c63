import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqcm.constraint import constraint_coordinates
from rqcm.minkowski import (BoundSystem, FourVector, bound_system, cm_and_relative,
                            eta_params, general_boost, minkowski_dot,
                            momentum_cm_and_relative, on_shell_momentum,
                            perp_projection, reduced_mass, rest_mass)
from rqcm.oscillator import oscillator_state, phi_1d, phi_1d_momentum, sigma_n


def test_dot_signature():
    e1 = FourVector(1, 0, 0, 0)
    e4 = FourVector(0, 0, 0, 1)
    assert minkowski_dot(e1, e1) == 1.0
    assert minkowski_dot(e4, e4) == -1.0
    assert minkowski_dot(e1, e4) == 0.0


def test_dot_rest_system():
    sys = bound_system(1.0, 1.0, 0.0)
    assert abs(minkowski_dot(sys.P, sys.P) - (-4.0)) < 1e-12


@pytest.mark.parametrize("value", [1 + 2j, np.complex128(1 + 2j), np.complex64(1 + 2j)],
                         ids=["complex", "complex128", "complex64"])
def test_four_vector_keeps_complex_components(value):
    w = FourVector(value, 0.5, np.float32(-1.0), np.int64(2))
    assert type(w.c1) is complex and w.c1 == 1 + 2j
    assert all(type(c) is float for c in (w.c2, w.c3, w.c4))
    assert w.components.dtype == np.complex128
    assert (w - w).c1 == 0j and type((1j * w).c2) is complex


def test_boost_is_complex_linear():
    # general_boost(a + i b) == general_boost(a) + i general_boost(b)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = FourVector.from_components(rng.uniform(-3, 3, 4))
        b = FourVector.from_components(rng.uniform(-3, 3, 4))
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
        z = FourVector.from_components(a.components + 1j * b.components)
        got = general_boost(z, v).components
        want = general_boost(a, v).components + 1j * general_boost(b, v).components
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_boost_identity():
    x = FourVector(1, 2, 3, 4)
    assert general_boost(x, (0, 0, 0)) == x


def test_boost_hand_value():
    got = general_boost(FourVector(0, 0, 0, 1), (0.6, 0, 0))
    np.testing.assert_allclose(got.components, [-0.75, 0, 0, 1.25], atol=1e-15)


def test_boost_preserves_interval():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = FourVector.from_components(rng.uniform(-5, 5, 4))
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.99) / np.linalg.norm(v)
        before = minkowski_dot(x, x)
        xb = general_boost(x, v)
        after = minkowski_dot(xb, xb)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


def test_boost_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = FourVector.from_components(rng.uniform(-3, 3, 4))
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
        back = general_boost(general_boost(x, v), -v)
        np.testing.assert_allclose(back.components, x.components, atol=1e-10)


def test_boost_rejects_superluminal():
    x = FourVector(0, 0, 0, 1)
    with pytest.raises(ValueError):
        general_boost(x, (1.0, 0, 0))
    with pytest.raises(ValueError):
        general_boost(x, (0.8, 0.8, 0))
    # the guard kicks in slightly below 1 to protect gamma
    with pytest.raises(ValueError):
        general_boost(x, (1.0 - 1e-13, 0, 0))


def test_rest_mass_free_particle():
    assert abs(rest_mass(1, 1, 0) - 2.0) < 1e-15
    assert abs(rest_mass(2, 1, 0) - 3.0) < 1e-15


def test_rest_mass_plus_branch_breaks_free_particle():
    # literal inner plus sign: sqrt(5 + sqrt(25 + 9)) for masses 2, 1
    want = math.sqrt(5 + math.sqrt(34))
    got = rest_mass(2, 1, 0, branch="plus")
    assert abs(got - want) < 1e-15
    assert abs(got - 3.291) < 1e-3
    assert abs(got - 3.0) > 0.2  # violates the sigma = 0 identity


def test_rest_mass_small_sigma():
    # m_r = 0.5, so M0 ~ 2 + sigma / 0.5
    assert abs(rest_mass(1, 1, 0.01) - 2.02) <= 1e-3


def test_rest_mass_quadratic_convergence():
    for m1, m2 in ((1.0, 1.0), (2.0, 1.0), (0.7, 2.4)):
        mr = reduced_mass(m1, m2)
        err = lambda s: abs(rest_mass(m1, m2, s) - (m1 + m2 + s / mr))
        ratio = err(1e-3) / err(5e-4)
        assert 3.5 <= ratio <= 4.5, ratio


def test_rest_mass_errors():
    with pytest.raises(ValueError):
        rest_mass(2, 1, -0.75)  # inner radicand negative
    with pytest.raises(ValueError):
        rest_mass(-1, 1, 0)
    with pytest.raises(ValueError):
        rest_mass(1, 1, 0, branch="both")


def test_eta_params_values():
    assert eta_params(1, 1, 2) == (0.5, 0.5)
    e1, e2 = eta_params(2, 1, 3)
    assert abs(e1 - 5 / 6) < 1e-15
    assert abs(e2 - 1 / 6) < 1e-15


def test_eta_params_sum_exact():
    rng = np.random.default_rng(3)
    for _ in range(5000):
        m1, m2 = rng.uniform(0.1, 5.0, 2)
        M0 = rest_mass(m1, m2, rng.uniform(0, m1 * m2))
        e1, e2 = eta_params(m1, m2, M0)
        assert e1 + e2 == 1.0


def test_cm_and_relative():
    sys = bound_system(1.0, 1.0, 0.0)
    w = FourVector(0.3, -1.2, 0.5, 2.0)
    X, x = cm_and_relative(w, w, sys)
    np.testing.assert_allclose(X.components, w.components, rtol=1e-15)
    assert x == FourVector(0, 0, 0, 0)

    X, x = cm_and_relative(FourVector(1, 0, 0, 0), FourVector(0, 0, 0, 0), sys)
    assert X == FourVector(0.5, 0, 0, 0)
    assert x == FourVector(1, 0, 0, 0)


def test_momentum_cm_and_relative():
    sys = bound_system(1.0, 1.0, 0.0)
    P, p = momentum_cm_and_relative(FourVector(1, 0, 0, 2), FourVector(-1, 0, 0, 2), sys)
    assert P == FourVector(0, 0, 0, 4)
    assert p == FourVector(1, 0, 0, 0)


def test_perp_projection_rest_frame():
    P = FourVector(0, 0, 0, 2.0)
    got = perp_projection(FourVector(1.0, -2.0, 3.0, 4.0), P, 2.0)
    np.testing.assert_allclose(got.components, [1, -2, 3, 0], atol=1e-15)


def test_perp_projection_of_p_itself():
    P = on_shell_momentum(1.7, (0.3, -0.2, 0.5))
    got = perp_projection(P, P, 1.7)
    np.testing.assert_allclose(got.components, np.zeros(4), atol=1e-12)


def test_perp_projection_orthogonality_and_idempotency():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        M0 = rng.uniform(0.5, 4.0)
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.99) / np.linalg.norm(v)
        P = on_shell_momentum(M0, v)
        w = FourVector.from_components(rng.uniform(-2, 2, 4))
        perp = perp_projection(w, P, M0)
        scale = max(np.linalg.norm(P.components) * np.linalg.norm(perp.components), 1.0)
        assert abs(minkowski_dot(P, perp)) <= 1e-10 * scale
        again = perp_projection(perp, P, M0)
        np.testing.assert_allclose(again.components, perp.components, atol=1e-12)


def test_perp_projection_of_four_vectors_has_the_bits_of_python_arithmetic():
    # w + P (P.w) / M0^2 in Python floats and complex numbers, Bargmann points included
    rng = np.random.default_rng(25)
    for _ in range(200):
        M0 = rng.uniform(0.5, 4.0)
        P = on_shell_momentum(M0, rng.uniform(-0.5, 0.5, 3))
        for w in (rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)):
            w = FourVector.from_components(w.tolist())
            k = (P.c1 * w.c1 + P.c2 * w.c2 + P.c3 * w.c3 - P.c4 * w.c4) / (M0 * M0)
            want = [w.c1 + k * P.c1, w.c2 + k * P.c2, w.c3 + k * P.c3, w.c4 + k * P.c4]
            assert perp_projection(w, P, M0).components.tolist() == want


def test_perp_projection_requires_on_shell():
    with pytest.raises(ValueError):
        perp_projection(FourVector(1, 0, 0, 0), FourVector(0, 0, 0, 3.0), 2.0)


def test_on_shell_momentum():
    assert on_shell_momentum(2.0, (0, 0, 0)) == FourVector(0, 0, 0, 2)
    got = on_shell_momentum(1.0, (0.6, 0, 0))
    np.testing.assert_allclose(got.components, [0.75, 0, 0, 1.25], rtol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(200):
        M0 = rng.uniform(0.5, 4.0)
        v = rng.uniform(-0.57, 0.57, 3)
        P = on_shell_momentum(M0, v)
        assert abs(minkowski_dot(P, P) + M0 * M0) <= 1e-12 * M0 * M0
    with pytest.raises(ValueError):
        on_shell_momentum(1.0, (0.9, 0.9, 0))


def test_bound_system_invariants():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        sigma = rng.uniform(0, 0.5 * m1 * m2)
        v = rng.uniform(-0.5, 0.5, 3)
        sys = bound_system(m1, m2, sigma, v)
        assert abs(minkowski_dot(sys.P, sys.P) + sys.M0 ** 2) <= 1e-12 * sys.M0 ** 2
        assert sys.P.c4 > 0
        assert sys.eta1 + sys.eta2 == 1.0
        np.testing.assert_allclose(sys.velocity, v, atol=1e-12)


def test_bound_system_free_particle_mass():
    sys = bound_system(1.25, 0.75, 0.0)
    assert abs(sys.M0 - 2.0) < 1e-12


def test_bound_system_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bound_system(-1.0, 1.0)
    with pytest.raises(ValueError):
        BoundSystem(1.0, 1.0, 0.0, 2.0, 0.5, 0.5, FourVector(0, 0, 0, 3.0))  # off shell
    with pytest.raises(ValueError):
        BoundSystem(1.0, 1.0, 0.0, 2.0, 0.5, 0.5, FourVector(0, 0, 0, -2.0))  # negative energy


# a bool passed as a mass or a spring constant, which was read as 1
_BOOL_CALLS = {
    "rest_mass": lambda: rest_mass(True, 1.0, 0.0),
    "rest_mass_bool_array": lambda: rest_mass(np.array([True, True]), 1.0, 0.0),
    "eta_params_bool_array": lambda: eta_params(1.0, np.array([True]), np.array([2.0])),
    "reduced_mass": lambda: reduced_mass(np.True_, 2.0),
    "bound_system": lambda: bound_system(True, True),
    "phi_1d": lambda: phi_1d(0, True, 0.3),
    "phi_1d_bool_array": lambda: phi_1d(0, np.array([True, True]), 0.3),
}


@pytest.mark.parametrize("call", _BOOL_CALLS.values(), ids=_BOOL_CALLS.keys())
def test_a_bool_is_not_a_positive_number(call):
    with pytest.raises(ValueError, match="must be positive and finite, got"):
        call()


# each entry point at a complex number in one argument: bound_system is one system, so
# its sigma is a scalar only
_COMPLEX_CALLS = {
    "rest_mass_m1": lambda c: rest_mass(c, 1.0, 0.0),
    "rest_mass_sigma": lambda c: rest_mass(1.0, 1.3, c),
    "eta_params_M0": lambda c: eta_params(1.0, 1.3, c),
    "bound_system_m2": lambda c: bound_system(1.0, c, 0.2),
    "reduced_mass": lambda c: reduced_mass(c, 2.0),
    "sigma_n": lambda c: sigma_n(c, 1),
    "phi_1d": lambda c: phi_1d(0, c, 0.3),
}
_COMPLEX_VALUES = {"python": 1j, "python_real_part": 2.0 + 0j, "complex128": np.complex128(2.0),
                   "complex64": np.complex64(2.0), "stack": np.array([2.0, 1.0 + 0j])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", _COMPLEX_VALUES.values(), ids=_COMPLEX_VALUES.keys())
@pytest.mark.parametrize("call", _COMPLEX_CALLS.values(), ids=_COMPLEX_CALLS.keys())
def test_a_complex_number_is_not_a_real_one(call, value):
    with pytest.raises(ValueError, match="must be (positive|real) and finite, got"):
        call(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1j, 2.0 + 0j, np.complex64(2.0)])
def test_bound_system_refuses_a_complex_sigma(value):
    with pytest.raises(ValueError, match="sigma must be real and finite, got"):
        bound_system(1.0, 1.3, value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.array([1.0]), np.array([1.0, 2.0]), np.zeros((1, 1))],
                         ids=repr)
def test_bound_system_refuses_an_array_sigma(value):
    # one system has one sigma: TypeError here for one entry, numpy's ambiguous truth for two
    with pytest.raises(ValueError, match="sigma must be real and finite, got"):
        bound_system(1.0, 1.0, value)


# each entry point at a float32 or float16 scalar in one argument, which numpy compared
# with the float maximum in its own width ("overflow encountered in cast")
_NARROW_CALLS = {
    "rest_mass_m1": lambda c: rest_mass(c(1.0), 1.0, 0.0),
    "rest_mass_sigma": lambda c: rest_mass(1.0, 1.3, c(0.3)),
    "phi_1d_omega": lambda c: phi_1d(2, c(1.1), 0.4),
    "phi_1d_argument": lambda c: phi_1d(2, 1.1, c(0.4)),
    "phi_1d_momentum_omega": lambda c: phi_1d_momentum(3, c(0.7), -0.9),
    "sigma_n": lambda c: sigma_n(c(1.1), 2),
    "reduced_mass": lambda c: reduced_mass(c(1.1), 2.0),
    # the state's sigma ran in float32 and missed sigma_n of float(omega)
    "oscillator_state": lambda c: oscillator_state((0, 0, 0), c(1.1), 1.0, 1.3),
    # a 0-d array of the narrow float, which the array test compared in its own width
    "phi_1d_omega_0d_array": lambda c: phi_1d(2, np.array(c(1.1)), 0.4),
    "sigma_n_0d_array": lambda c: sigma_n(np.array(c(1.1)), 1),
}
# a system keeps the float its owner reads: a float32 mass ran its arithmetic in float32
_SYSTEM = bound_system(1.0, 1.3, 0.3)
_MASS_CALLS = {
    "bound_system_m1_type": lambda c: type(bound_system(c(1.1), 1.3).m1),
    "BoundSystem_m2_type": lambda c: type(dataclasses.replace(_SYSTEM, m2=c(1.3)).m2),
    "oscillator_state_m1_type": lambda c: type(
        oscillator_state((0, 0, 0), 1.1, c(1.1), 1.3).sys.m1),
}
# each call at each narrow type; an np.int64 mass too, read as the float64 of its value
_NARROW_CASES = {f"{name}-{narrow.__name__}": (call, narrow)
                 for calls, types in ((_NARROW_CALLS, (np.float32, np.float16)),
                                      (_MASS_CALLS, (np.float32, np.float16, np.int64)))
                 for name, call in calls.items() for narrow in types}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, narrow", _NARROW_CASES.values(), ids=_NARROW_CASES.keys())
def test_a_narrow_float_reads_as_the_float64_of_its_value(call, narrow):
    assert call(narrow) == call(lambda x: float(narrow(x)))


# the two-body pairing: a random system and real 4-vectors with components in [-5, 5]
_vectors = st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4).map(FourVector.from_components)
_systems = st.builds(lambda m1, m2, s, v: bound_system(m1, m2, s * m1 * m2, v),
                     st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.0, 0.5),
                     st.tuples(*[st.floats(-0.5, 0.5)] * 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_systems, _vectors, _vectors, _vectors, _vectors)
def test_two_body_pairing_splits_into_cm_and_relative(sys, x1, x2, p1, p2):
    # p1.x1 + p2.x2 = P.X + p.x, exactly in algebra once eta1 + eta2 = 1: the phase
    # exp(i P.X) and the relative wave function carry the whole two-body state
    X, x = cm_and_relative(x1, x2, sys)
    P, p = momentum_cm_and_relative(p1, p2, sys)
    lhs = minkowski_dot(p1, x1) + minkowski_dot(p2, x2)
    rhs = minkowski_dot(P, X) + minkowski_dot(p, x)
    # the size of the terms: every product of a momentum and a position component
    terms = sum(abs(a * b) for q in (p1, p2) for y in (x1, x2)
                for a, b in zip(q.components, y.components))
    assert abs(lhs - rhs) <= 1e-14 * terms


def test_bound_system_boosted_and_with_sigma():
    sys = bound_system(1.0, 1.5, 0.2, (0.2, -0.1, 0.4))
    moved = sys.boosted((0.0, 0.3, 0.0))
    assert moved.M0 == sys.M0 and moved.sigma == sys.sigma
    assert abs(minkowski_dot(moved.P, moved.P) + sys.M0 ** 2) <= 1e-10 * sys.M0 ** 2

    retuned = sys.with_sigma(0.5)
    assert retuned.sigma == 0.5
    assert retuned.M0 > sys.M0
    np.testing.assert_allclose(retuned.velocity, sys.velocity, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_non_finite_vectors_and_boosts_raise():
    sys = bound_system(1.0, 1.3, 0.5, (0.3, 0.0, 0.0))
    for w in (FourVector(math.inf, 0, 0, 0), np.array([[0.0, 0, 0, 1], [0, 0, math.nan, 1]]),
              np.array([0.0, 0, 1j * math.inf, 1])):
        with pytest.raises(ValueError, match="non-finite 4-vector"):
            general_boost(w, (0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite 4-vector"):
            constraint_coordinates(w, sys)
    # finite vectors whose boost overflows
    with pytest.raises(ValueError, match=r"non-finite boosted 4-vector \[-?inf"):
        general_boost(np.array([[0.0, 0, 0, 1], [1.7e308, 0, 0, 0]]), (-0.9, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite constraint coordinates"):
        constraint_coordinates(FourVector(1.79e308, 0, 0, 1.0), sys)
    # up to there, the bits of the map itself
    x = np.array([[1e307, 0, 0, 0], [0.3, -0.2, 0.1, 0.5]])
    assert general_boost(x, (-0.9, 0.0, 0.0)).tolist() == [
        list(general_boost(FourVector(*row), (-0.9, 0.0, 0.0)).components) for row in x]
