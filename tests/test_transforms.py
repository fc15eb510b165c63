import math

import numpy as np
import pytest

from rqcm.minkowski import FourVector
from rqcm.oscillator import (oscillator_state, phi_1d, phi_1d_momentum,
                             position_profile, momentum_profile, psi_bargmann,
                             states_up_to)
from rqcm.transforms import (InsufficientOrderWarning, bargmann_of_state,
                             bargmann_transform, bargmann_transform3,
                             fourier_forward, fourier_forward1d, fourier_inverse,
                             fourier_inverse1d, fourier_of_state, gauss_hermite,
                             momentum_quadrature, normalization_integral,
                             overlap_integral, rescaled_nodes, trust_momentum)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# quadrature rule

def test_rule_order_one_and_two():
    r1 = gauss_hermite(1)
    assert r1.nodes.tolist() == [0.0]
    assert abs(r1.weights[0] - SQRT_PI) < 1e-15

    r2 = gauss_hermite(2)
    np.testing.assert_allclose(r2.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
    np.testing.assert_allclose(r2.weights, [SQRT_PI / 2, SQRT_PI / 2], atol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 32, 64, 128, 255, 256])
def test_rule_weight_sum(order):
    rule = gauss_hermite(order)
    assert abs(rule.weights.sum() - SQRT_PI) <= 1e-12
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("order", range(1, 257))
def test_rule_discrete_orthonormality(order):
    # an order-N rule integrates p_j p_k exactly for j, k < N, so the Gram
    # matrix of the first N orthonormal Hermite polynomials is the identity
    rule = gauss_hermite(order)
    x = rule.nodes
    P = np.empty((order, order))
    P[0] = math.pi ** -0.25
    if order > 1:
        P[1] = math.sqrt(2.0) * x * P[0]
    for j in range(2, order):
        P[j] = math.sqrt(2.0 / j) * x * P[j - 1] - math.sqrt((j - 1) / j) * P[j - 2]
    gram = (P * rule.weights) @ P.T
    assert np.max(np.abs(gram - np.eye(order))) <= 1e-13


def test_rule_gaussian_moments():
    # integral of y^k exp(-y^2): 0 for odd k, sqrt(pi) (k-1)!! / 2^(k/2) for even
    rule = gauss_hermite(8)
    for k in range(9):
        got = float(np.sum(rule.weights * rule.nodes ** k))
        if k % 2:
            want = 0.0
        else:
            want = SQRT_PI * math.prod(range(1, k, 2)) / 2 ** (k // 2)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), k


def test_rule_polynomial_exactness_to_degree():
    # order o integrates degree <= 2o-1 exactly; degree 2o does not cancel
    rule = gauss_hermite(4)
    got7 = float(np.sum(rule.weights * rule.nodes ** 7))
    assert abs(got7) < 1e-13
    got8 = float(np.sum(rule.weights * rule.nodes ** 8))
    want8 = SQRT_PI * 105 / 16
    assert abs(got8 - want8) > 1e-3  # first degree the rule must miss


def test_rule_bounds_and_cache():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(257)
    assert gauss_hermite(16) is gauss_hermite(16)
    with pytest.raises(ValueError):
        gauss_hermite(16).nodes[0] = 0.0  # read-only


def test_quadrature_of_squared_gaussian_moment():
    rule = gauss_hermite(2)
    got = float(np.sum(rule.weights * rule.nodes ** 2))
    assert abs(got - SQRT_PI / 2) <= 1e-14


# ---------------------------------------------------------------------------
# normalisation

def test_normalization_ground_state():
    st = oscillator_state((0, 0, 0), 1.4, 1.0, 1.0)
    assert abs(normalization_integral(st, gauss_hermite(16)) - 1.0) <= 1e-12


def test_normalization_high_levels():
    rule = gauss_hermite(32)
    for st in states_up_to(6, 0.9, 1.0, 1.3):
        assert abs(normalization_integral(st, rule) - 1.0) <= 1e-10, st.q


def test_normalization_insufficient_order_warns():
    st = oscillator_state((2, 2, 2), 1.0, 1.0, 1.0)
    with pytest.warns(InsufficientOrderWarning):
        normalization_integral(st, gauss_hermite(7))


def test_overlap_orthogonality():
    rule = gauss_hermite(32)
    a = oscillator_state((1, 0, 2), 1.1, 1.0, 1.2)
    b = oscillator_state((1, 1, 1), 1.1, 1.0, 1.2)
    assert abs(overlap_integral(a, b, rule)) <= 1e-10
    assert abs(overlap_integral(a, a, rule) - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        overlap_integral(a, oscillator_state((0, 0, 0), 2.0, 1.0, 1.2), rule)


# ---------------------------------------------------------------------------
# Fourier pair

def test_fourier_forward_ground_state_closed_form():
    om = 1.3
    rule = gauss_hermite(32)
    st = oscillator_state((0, 0, 0), om, 1.0, 1.0)
    axis = np.linspace(-2.5 * math.sqrt(om), 2.5 * math.sqrt(om), 5)
    got = fourier_of_state(st, (axis, axis, axis), rule)
    prof = momentum_profile(st)
    want = prof(axis[:, None, None], axis[None, :, None], axis[None, None, :])
    np.testing.assert_allclose(got.real, want, atol=1e-10)
    np.testing.assert_allclose(got.imag, np.zeros_like(want), atol=1e-10)


def test_fourier_forward_excited_modulus_and_phase():
    om = 1.0
    rule = gauss_hermite(32)
    targets = np.linspace(-3.0, 3.0, 7)
    for l in range(5):
        g = lambda xi, l=l: phi_1d(l, om, xi)
        got = fourier_forward1d(g, targets, rule, om)
        want = phi_1d_momentum(l, om, targets)
        np.testing.assert_allclose(np.abs(got), np.abs(want), atol=1e-9)
        # measured forward eigenphase: (-i)^l per axis
        np.testing.assert_allclose(got, (-1j) ** l * want, atol=1e-9)


def test_fourier_forward_point_list_matches_grid():
    om = 1.1
    rule = gauss_hermite(24)
    st = oscillator_state((1, 0, 1), om, 1.0, 1.0)
    axis = np.linspace(-1.5, 1.5, 3)
    grid = fourier_of_state(st, (axis, axis, axis), rule)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    flat = fourier_forward(position_profile(st), pts.reshape(-1, 3), rule, om)
    np.testing.assert_allclose(grid.ravel(), flat, atol=1e-12)
    single = fourier_forward(position_profile(st), np.array([0.3, -0.2, 0.9]), rule, om)
    assert isinstance(single, complex)
    # three 1D factors (separable path) agree with the equivalent 3D
    # evaluator (tensor path) on a product grid and on a point list
    ls = st.q.as_tuple()
    pos = [lambda xi, l=l: phi_1d(l, om, xi) for l in ls]
    mom = [lambda p, l=l: phi_1d_momentum(l, om, p) for l in ls]
    for transform, factors, profile in ((fourier_forward, pos, position_profile(st)),
                                        (fourier_inverse, mom, momentum_profile(st))):
        for targets in ((axis, axis, axis), pts):
            np.testing.assert_allclose(transform(factors, targets, rule, om),
                                       transform(profile, targets, rule, om),
                                       rtol=0, atol=1e-13)
        assert isinstance(transform(factors, np.array([0.3, -0.2, 0.9]), rule, om), complex)
    with pytest.raises(ValueError, match="three 1D factors"):
        fourier_forward(pos[:2], pts, rule, om)


def test_fourier_matches_momentum_representation():
    # the numeric transform reproduces the momentum-space wave function up
    # to the per-level eigenphase (-i)^n
    om = 1.2
    rule = gauss_hermite(32)
    st = oscillator_state((2, 1, 0), om, 1.0, 1.4)
    axis = np.linspace(-2.0, 2.0, 4)
    got = fourier_of_state(st, (axis, axis, axis), rule)
    prof = momentum_profile(st)
    want = prof(axis[:, None, None], axis[None, :, None], axis[None, None, :])
    np.testing.assert_allclose(got, (-1j) ** st.q.n * want, atol=1e-9)


def test_fourier_round_trip_identity():
    om = 1.3
    rule = gauss_hermite(64)
    xi_pts = np.linspace(-2.5 / math.sqrt(om), 2.5 / math.sqrt(om), 5)
    for ls in ((0, 0, 0), (1, 0, 2), (2, 1, 1)):
        st = oscillator_state(ls, om, 1.0, 1.2)
        g = position_profile(st)

        def fwd(p1, p2, p3):
            axes = (np.asarray(p1).ravel(), np.asarray(p2).ravel(), np.asarray(p3).ravel())
            return fourier_forward(g, axes, rule, om)

        back = fourier_inverse(fwd, (xi_pts,) * 3, rule, om)
        truth = g(xi_pts[:, None, None], xi_pts[None, :, None], xi_pts[None, None, :])
        np.testing.assert_allclose(back, truth.astype(complex), atol=1e-8)


def test_fourier_round_trip_1d():
    om = 0.9
    rule = gauss_hermite(64)
    xi_pts = np.linspace(-2.0, 2.0, 9)
    for l in range(5):
        g = lambda xi, l=l: phi_1d(l, om, xi)
        fwd = lambda p: fourier_forward1d(g, p, rule, om)
        back = fourier_inverse1d(fwd, xi_pts, rule, om)
        np.testing.assert_allclose(back, g(xi_pts).astype(complex), atol=1e-9)


def test_parseval():
    om = 1.3
    rule = gauss_hermite(64)
    ppts, peff = momentum_quadrature(rule, om)
    for ls in ((0, 0, 0), (1, 1, 1), (2, 0, 2)):
        st = oscillator_state(ls, om, 1.0, 1.1)
        fnum = fourier_forward(position_profile(st), (ppts,) * 3, rule, om)
        w3 = peff[:, None, None] * peff[None, :, None] * peff[None, None, :]
        total = float(np.sum(w3 * np.abs(fnum) ** 2))
        assert abs(total - 1.0) <= 1e-8, ls


def test_fourier_linearity():
    om = 1.0
    rule = gauss_hermite(32)
    g1 = lambda xi: phi_1d(0, om, xi)
    g2 = lambda xi: phi_1d(3, om, xi)
    combo = lambda xi: 0.7 * g1(xi) - 1.4 * g2(xi)
    targets = np.linspace(-2, 2, 5)
    got = fourier_forward1d(combo, targets, rule, om)
    want = (0.7 * fourier_forward1d(g1, targets, rule, om)
            - 1.4 * fourier_forward1d(g2, targets, rule, om))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_fourier_convergence_with_order():
    om = 1.0
    st = oscillator_state((2, 1, 1), om, 1.0, 1.0)  # n = 4, threshold 2n + 8 = 16
    # targets inside the order-16 trust region, where doubling is a no-op
    reach = 0.9 * trust_momentum(gauss_hermite(16), om)
    axis = np.linspace(-reach, reach, 3)
    a = fourier_of_state(st, (axis, axis, axis), gauss_hermite(16))
    b = fourier_of_state(st, (axis, axis, axis), gauss_hermite(32))
    assert np.max(np.abs(a - b)) < 1e-12


def test_fourier_warns_beyond_trust():
    om = 1.0
    rule = gauss_hermite(8)
    g = lambda xi: phi_1d(0, om, xi)
    far = 2.0 * trust_momentum(rule, om)
    with pytest.warns(InsufficientOrderWarning):
        fourier_forward(lambda a, b, c: g(a) * g(b) * g(c),
                        np.array([far, 0.0, 0.0]), rule, om)
    with pytest.warns(InsufficientOrderWarning):
        fourier_of_state(oscillator_state((0, 0, 0), om, 1.0, 1.0),
                         np.array([far, 0.0, 0.0]), rule)


# ---------------------------------------------------------------------------
# Segal-Bargmann

ALPHA_GRID = np.array([a + 1j * b for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)])


def test_bargmann_ground_state_is_unity():
    om = 1.3
    rule = gauss_hermite(32)
    got = bargmann_transform(lambda xi: phi_1d(0, om, xi), ALPHA_GRID, om, rule)
    np.testing.assert_allclose(got, np.ones_like(ALPHA_GRID), atol=1e-10)


def test_bargmann_kernel_sign_sweep():
    # the adopted sign (+1) maps the l-th factor to alpha^l/sqrt(l!); the
    # printed-kernel sign (-1) produces an extra (-1)^l, so it cannot
    # reproduce the stated monomials
    om = 1.1
    rule = gauss_hermite(48)
    for l in range(9):
        g = lambda xi, l=l: phi_1d(l, om, xi)
        want = ALPHA_GRID ** l / math.sqrt(math.factorial(l))
        plus = bargmann_transform(g, ALPHA_GRID, om, rule, sign=+1)
        minus = bargmann_transform(g, ALPHA_GRID, om, rule, sign=-1)
        np.testing.assert_allclose(plus, want, atol=1e-9)
        np.testing.assert_allclose(minus, (-1.0) ** l * want, atol=1e-9)


def test_bargmann_at_origin():
    om = 1.0
    rule = gauss_hermite(32)
    for l in range(1, 6):
        got = bargmann_transform(lambda xi, l=l: phi_1d(l, om, xi), 0.0, om, rule)
        assert abs(got) <= 1e-10


def test_bargmann_alpha_guard():
    om = 1.0
    rule = gauss_hermite(16)
    with pytest.raises(ValueError):
        bargmann_transform(lambda xi: phi_1d(0, om, xi), 11.0, om, rule)
    with pytest.raises(ValueError):
        bargmann_transform(lambda xi: phi_1d(0, om, xi), 0.0, om, rule, sign=2)


def test_bargmann_product_matches_state_representation():
    om = 1.2
    rule = gauss_hermite(48)
    st = oscillator_state((2, 0, 1), om, 1.0, 1.0)
    alphas = (0.6 - 0.3j, -1.1 + 0.2j, 0.4j)
    got = bargmann_of_state(st, alphas, rule)
    a = FourVector(alphas[0], alphas[1], alphas[2], 0.0)
    want = psi_bargmann(st, a)
    assert abs(got - want) <= 1e-9

    profiles = [lambda xi, l=l: phi_1d(l, om, xi) for l in st.q.as_tuple()]
    same = bargmann_transform3(profiles, alphas, om, rule)
    assert abs(same - got) < 1e-15
