import math
from fractions import Fraction

import numpy as np
import pytest

from rqcm.constraint import (constraint_coordinates, invariant_norm,
                             xi_directional_derivative, xi_jacobian)
from rqcm.minkowski import FourVector, bound_system, general_boost, minkowski_dot
from rqcm.verify import finite_difference_gradient4


def _random_system(rng, vmax=0.9):
    m1, m2 = rng.uniform(0.5, 3.0, 2)
    sigma = rng.uniform(0, 0.5 * m1 * m2)
    v = rng.uniform(-1, 1, 3)
    v *= rng.uniform(0, vmax) / np.linalg.norm(v)
    return bound_system(m1, m2, sigma, v)


def test_xi_rest_frame_exact():
    sys = bound_system(1.0, 2.0, 0.1)
    xi = constraint_coordinates(FourVector(0.3, -1.1, 2.5, 7.0), sys)
    assert xi.tolist() == [0.3, -1.1, 2.5]
    assert xi.dtype == np.float64 and xi.shape == (3,)
    assert constraint_coordinates(FourVector(0, 0, 0, 0), sys).tolist() == [0, 0, 0]


def test_xi_equals_boost_to_rest_frame():
    # oracle: boost x with the system velocity and read the spatial part
    rng = np.random.default_rng(10)
    for _ in range(50):
        sys = _random_system(rng)
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        xi = constraint_coordinates(x, sys)
        oracle = general_boost(x, sys.velocity).spatial
        np.testing.assert_allclose(xi, oracle, atol=1e-12)


def test_xi_explicit_case():
    sys = bound_system(1.0, 1.0, 0.0, (0.6, 0.0, 0.0))
    x = FourVector(1.0, 0.0, 0.0, 0.0)
    oracle = general_boost(x, (0.6, 0.0, 0.0)).spatial
    np.testing.assert_allclose(constraint_coordinates(x, sys), oracle, atol=1e-14)


def test_pi_rest_frame_and_total_momentum():
    sys = bound_system(1.0, 2.0, 0.1)
    pi = constraint_coordinates(FourVector(0.4, 0.5, -0.6, 3.0), sys)
    assert pi.tolist() == [0.4, 0.5, -0.6]

    rng = np.random.default_rng(11)
    for _ in range(20):
        moving = _random_system(rng)
        pi_of_p = constraint_coordinates(moving.P, moving)
        np.testing.assert_allclose(pi_of_p, np.zeros(3), atol=1e-12)


def test_pi_squared_norm_matches_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        sys = _random_system(rng)
        p = FourVector.from_components(rng.uniform(-2, 2, 4))
        pi = constraint_coordinates(p, sys)
        got = float(pi @ pi)
        want = invariant_norm(p, sys)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_alpha_rest_frame_and_real_reduction():
    sys = bound_system(1.0, 2.0, 0.1)
    a = FourVector(1 + 2j, -3j, 0.5, 2 - 1j)
    al = constraint_coordinates(a, sys)
    assert al.tolist() == [1 + 2j, -3j, 0.5]
    assert al.dtype == np.complex128

    moving = bound_system(1.0, 1.3, 0.2, (0.4, -0.2, 0.1))
    x = FourVector(0.3, 0.7, -0.2, 0.9)
    x_complex = FourVector(x.c1 + 0j, x.c2 + 0j, x.c3 + 0j, x.c4 + 0j)
    got = constraint_coordinates(x_complex, moving)
    want = constraint_coordinates(x, moving)
    assert got.dtype == np.complex128 and want.dtype == np.float64
    np.testing.assert_allclose(got.real, want, atol=1e-14)
    np.testing.assert_allclose(got.imag, np.zeros(3), atol=1e-16)


def test_alpha_exact_rational_oracle():
    # exact-arithmetic evaluation of the same map at one boosted point
    sys = bound_system(1.0, 1.0, 0.0, (0.6, 0.0, 0.0))
    a = FourVector(0.25 + 0.5j, -0.75j, 1.5, 0.0)
    got = constraint_coordinates(a, sys)

    P = [Fraction(c) for c in sys.P.components]
    M0 = Fraction(sys.M0)
    are = [Fraction(c.real) for c in a.components]
    aim = [Fraction(c.imag) for c in a.components]
    den = M0 * (M0 + P[3])
    for part, comps in (("re", are), ("im", aim)):
        dot = P[0] * comps[0] + P[1] * comps[1] + P[2] * comps[2] - P[3] * comps[3]
        num = dot - M0 * comps[3]
        for i in range(3):
            exact = comps[i] + P[i] * num / den
            val = got[i].real if part == "re" else got[i].imag
            assert abs(val - float(exact)) < 5e-16, (part, i)


def _closed_form_jacobian(sys):
    """d xi_i / d x_mu written out: I + c P_s P_s^T in space, -P_s / M0 in time,
    with c = 1 / (M0 (M0 + P4))."""
    P, M0 = sys.P, sys.M0
    sp = P.spatial
    jac = np.empty((3, 4))
    jac[:, :3] = np.eye(3) + np.outer(sp, sp) / (M0 * (M0 + P.c4))
    jac[:, 3] = -sp / M0
    return jac


def test_jacobian_matches_its_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(30):
        sys = _random_system(rng)
        np.testing.assert_allclose(xi_jacobian(sys), _closed_form_jacobian(sys),
                                   rtol=0, atol=1e-14)


def test_directional_derivative_is_kronecker_delta():
    rng = np.random.default_rng(13)
    for _ in range(30):
        sys = _random_system(rng)
        jac = xi_jacobian(sys)
        for j in range(3):
            for i in (1, 2, 3):
                got = xi_directional_derivative(jac[j], i, sys)
                want = 1.0 if i - 1 == j else 0.0
                assert abs(got - want) <= 1e-12


def test_directional_derivative_finite_difference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        sys = _random_system(rng)
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        for j in range(3):
            field = lambda pt, j=j: constraint_coordinates(pt, sys)[..., j]
            grad = finite_difference_gradient4(field, x)
            for i in (1, 2, 3):
                got = xi_directional_derivative(grad, i, sys)
                want = 1.0 if i - 1 == j else 0.0
                assert abs(got - want) <= 1e-6


def test_directional_derivative_rest_frame_reduction():
    sys = bound_system(1.0, 1.2, 0.0)
    grad = np.array([0.3, -0.7, 1.1, 2.5])
    for i in (1, 2, 3):
        assert xi_directional_derivative(grad, i, sys) == grad[i - 1]


def test_directional_derivative_of_xi_squared():
    rng = np.random.default_rng(15)
    sys = _random_system(rng)
    x = FourVector.from_components(rng.uniform(-2, 2, 4))
    xi = constraint_coordinates(x, sys)

    def field(pt):
        k = constraint_coordinates(pt, sys)
        return np.sum(k * k, axis=-1)

    grad_fd = finite_difference_gradient4(field, x)
    grad_analytic = 2.0 * (xi @ xi_jacobian(sys))
    np.testing.assert_allclose(grad_fd, grad_analytic, atol=1e-6)
    for i in (1, 2, 3):
        assert abs(xi_directional_derivative(grad_fd, i, sys) - 2 * xi[i - 1]) <= 1e-6
        assert abs(xi_directional_derivative(grad_analytic, i, sys) - 2 * xi[i - 1]) <= 1e-12


def test_directional_derivative_validates_axis():
    sys = bound_system(1.0, 1.0)
    with pytest.raises(ValueError):
        xi_directional_derivative(np.zeros(4), 0, sys)
    with pytest.raises(ValueError):
        xi_directional_derivative(np.zeros(3), 1, sys)


def test_invariant_norm_values():
    sys = bound_system(1.0, 1.0, 0.0)
    assert abs(invariant_norm(FourVector(1, 0, 0, 0), sys) - 1.0) < 1e-15
    rng = np.random.default_rng(16)
    moving = _random_system(rng)
    assert abs(invariant_norm(moving.P, moving)) <= 1e-12 * moving.M0 ** 2


def test_invariant_norm_frame_independent():
    rng = np.random.default_rng(17)
    for _ in range(100):
        sys = _random_system(rng)
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
        a = invariant_norm(x, sys)
        b = invariant_norm(general_boost(x, v), sys.boosted(v))
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_frame_covariance_of_constraint_vectors():
    # components rotate between observers; lengths and dot products do not
    rng = np.random.default_rng(18)
    for _ in range(300):
        sys = _random_system(rng, vmax=0.99)
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        p = FourVector.from_components(rng.uniform(-2, 2, 4))
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.99) / np.linalg.norm(v)
        sys_b = sys.boosted(v)
        xi_a = constraint_coordinates(x, sys)
        xi_b = constraint_coordinates(general_boost(x, v), sys_b)
        pi_a = constraint_coordinates(p, sys)
        pi_b = constraint_coordinates(general_boost(p, v), sys_b)
        for a, b in ((xi_a @ xi_a, xi_b @ xi_b),
                     (pi_a @ pi_a, pi_b @ pi_b),
                     (xi_a @ pi_a, xi_b @ pi_b)):
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)


def test_second_derivative_reduction_on_transversal_fields():
    # sum_i d2f/dxi_i2 = box f - ((P.d)/M0)^2 f for fields built on xi(x)
    from rqcm import verify

    rng = np.random.default_rng(19)
    for trial in range(5):
        sys = _random_system(rng, vmax=0.8)
        c0, c1 = rng.uniform(-1, 1, 2)

        def field(pt):
            k = constraint_coordinates(pt, sys)
            return np.exp(-0.5 * np.sum(k * k, axis=-1)) * (c0 + c1 * k[..., 0])

        def xi_laplacian(k):
            r2 = float(k @ k)
            poly = c0 + c1 * k[0]
            return math.exp(-0.5 * r2) * (poly * (r2 - 3.0) - 2.0 * c1 * k[0])

        x = FourVector.from_components(rng.uniform(-1.5, 1.5, 4))
        comps, h = x.components, verify.DEFAULT_H_SECOND
        # the engine's second difference along P / M0, stepped as the pde suite steps it
        along_P, _ = verify._second_differences(field, comps, (sys.P.components / sys.M0)[None],
                                                verify._direction_step(comps, h))
        lhs = verify.box4(field, x) - along_P[0]
        want = xi_laplacian(constraint_coordinates(x, sys))
        assert abs(lhs - want) <= 1e-5 * max(abs(want), 1.0), trial


def test_maps_are_linear():
    rng = np.random.default_rng(20)
    sys = _random_system(rng)
    x = FourVector.from_components(rng.uniform(-2, 2, 4))
    y = FourVector.from_components(rng.uniform(-2, 2, 4))
    a, b = 0.7, -1.3
    combo = a * x + b * y  # type: ignore[operator]
    got = constraint_coordinates(combo, sys)
    want = a * constraint_coordinates(x, sys) + b * constraint_coordinates(y, sys)
    np.testing.assert_allclose(got, want, atol=1e-12)
