import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqcm import oscillator, transforms, verify
from rqcm.minkowski import FourVector
from rqcm.oscillator import (_hermite_levels, oscillator_state, phi_1d, phi_1d_momentum,
                             position_profile, momentum_profile, psi_bargmann,
                             states_up_to)
from rqcm.transforms import (InsufficientOrderWarning, bargmann_of_state,
                             bargmann_transform, fourier_forward, fourier_forward1d,
                             fourier_inverse, fourier_of_state, gauss_hermite,
                             normalization_integral, overlap_integral, rescaled_nodes,
                             trust_momentum)

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
    # exact once the order exceeds every level, so only order <= 2 warns here
    st = oscillator_state((2, 2, 2), 1.0, 1.0, 1.0)
    with pytest.warns(InsufficientOrderWarning):
        normalization_integral(st, gauss_hermite(2))
    assert abs(normalization_integral(st, gauss_hermite(3)) - 1.0) <= 1e-13


def test_overlap_warns_past_the_exact_order():
    # order N is exact on an axis only when la + lb <= 2N - 1
    rule = gauss_hermite(4)
    st = {l: oscillator_state((l, 0, 0), 1.0, 1.0, 1.0) for l in (3, 4, 5)}
    for a, b in ((3, 5), (4, 4), (5, 3)):
        with pytest.warns(InsufficientOrderWarning, match="level sum 8 exceeds"):
            overlap_integral(st[a], st[b], rule)
    assert abs(overlap_integral(st[3], st[4], rule)) <= 1e-15
    assert abs(overlap_integral(st[4], st[4], gauss_hermite(5)) - 1.0) <= 1e-13


def test_overlap_orthogonality():
    rule = gauss_hermite(32)
    a = oscillator_state((1, 0, 2), 1.1, 1.0, 1.2)
    b = oscillator_state((1, 1, 1), 1.1, 1.0, 1.2)
    assert abs(overlap_integral(a, b, rule)) <= 1e-10
    assert abs(overlap_integral(a, a, rule) - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        overlap_integral(a, oscillator_state((0, 0, 0), 2.0, 1.0, 1.2), rule)


@pytest.mark.parametrize("la, lb, order", [
    ((1, 0, 2), (3, 1, 1), 32), ((2, 5, 0), (2, 5, 0), 32), ((64, 7, 0), (64, 0, 7), 80)],
    ids=["mixed levels", "equal levels", "level 64"])
def test_overlap_keeps_the_bits_of_phi_1d_per_axis(la, lb, order):
    # one recurrence up to the highest level gives phi_1d's rows bit for bit
    a, b = (oscillator_state(ls, 1.1, 1.0, 1.3) for ls in (la, lb))
    rule = gauss_hermite(order)
    pts, eff = rescaled_nodes(rule, 1.1)
    want = 1.0
    for l, m in zip(la, lb):
        want *= float(np.sum(eff * phi_1d(l, 1.1, pts) * phi_1d(m, 1.1, pts)))
    assert overlap_integral(a, b, rule) == want
    if la == lb:
        assert normalization_integral(a, rule) == want


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


def test_a_list_of_three_points_is_not_a_grid():
    # only a tuple of three 1D axes is a product grid
    st = oscillator_state((1, 0, 2), 1.1, 1.0, 1.0)
    rule = gauss_hermite(16)
    pts = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    got = fourier_of_state(st, pts, rule)
    assert got.shape == (3,)
    assert np.array_equal(got, fourier_of_state(st, np.array(pts), rule))
    assert fourier_of_state(st, tuple(np.array(pts)), rule).shape == (3, 3, 3)
    # Segal-Bargmann reads its targets the same way
    got = bargmann_of_state(st, pts, rule)
    assert got.shape == (3,)
    assert np.array_equal(got, bargmann_of_state(st, np.array(pts), rule))
    assert bargmann_of_state(st, tuple(np.array(pts)), rule).shape == (3, 3, 3)


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


def _complex_table_synthesis(t, scale, order, sign, c):
    """The synthesis written with a complex (targets, order) table: the levels
    times (sign i)^l, contracted with the coefficients c."""
    levels = np.stack(_hermite_levels(order - 1, scale * np.ravel(t)), -1)
    phase = np.array([1, sign * 1j, -1, -sign * 1j])[np.arange(order) % 4]
    table = math.sqrt(scale) * levels * phase
    return table @ c, 8 * np.finfo(float).eps * np.max(np.abs(table)) * np.sum(np.abs(c))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 64, 256])
@pytest.mark.parametrize("sign", [-1, +1])
def test_real_level_synthesis_matches_a_complex_table(order, sign):
    rng = np.random.default_rng(order)
    t, omega = rng.normal(scale=4.0, size=37), 0.8 ** (2 * sign)
    scale = oscillator._scale(omega, sign)  # 0.8 up to rounding, in either direction
    table = oscillator._factor_table(sign, order - 1, omega, t)
    assert table.dtype == float and table.shape == (order, t.size)
    for c in (rng.normal(size=order), rng.normal(size=order) + 1j * rng.normal(size=order)):
        want, bound = _complex_table_synthesis(t, scale, order, sign, c)
        got = transforms._synthesis(table, c, sign)
        assert got.dtype == complex and got.shape == t.shape
        assert np.max(np.abs(got - want)) <= bound


def test_real_level_synthesis_keeps_the_shapes_and_types_of_the_targets():
    rule, om = gauss_hermite(24), 1.3
    factors = [lambda xi, l=l: phi_1d(l, om, xi) for l in (2, 0, 5)]
    scale = om ** -0.5
    coef = [transforms._coefficients(f, rule, scale) for f in factors]

    def want(axis, t):
        return _complex_table_synthesis(t, scale, rule.order, -1, coef[axis])

    for t in (0.3, np.float64(0.3), np.array(0.3)):  # a scalar or 0-d target
        got = fourier_forward1d(factors[0], t, rule, om)
        (value,), bound = want(0, t)
        assert type(got) is complex and abs(got - value) <= bound
    t = np.linspace(-2.0, 3.0, 6).reshape(2, 3)
    got, (value, bound) = fourier_forward1d(factors[0], t, rule, om), want(0, t)
    assert got.shape == (2, 3) and np.max(np.abs(got.ravel() - value)) <= bound
    assert fourier_forward1d(factors[0], np.zeros(0), rule, om).shape == (0,)
    assert fourier_forward(factors, np.zeros((0, 3)), rule, om).shape == (0,)
    point = [0.4, -1.1, 2.0]  # a list of three numbers is one point
    got = fourier_forward(factors, point, rule, om)
    value = math.prod(want(k, x)[0][0] for k, x in enumerate(point))
    assert type(got) is complex and abs(got - value) <= 1e-15


def test_shared_grid_axis_gives_the_bits_of_copies(monkeypatch):
    # a grid whose axes are one array builds one table for all three; the
    # result must keep the bits of three distinct, equal arrays
    om = 1.1
    rule = gauss_hermite(20)
    st = oscillator_state((2, 0, 1), om, 1.0, 1.3)
    t = np.linspace(-1.7, 2.1, 6)
    pos = [lambda xi, l=l: phi_1d(l, om, xi) for l in st.q.as_tuple()]
    mom = [lambda p, l=l: phi_1d_momentum(l, om, p) for l in st.q.as_tuple()]
    for transform, factors, profile in ((fourier_forward, pos, position_profile(st)),
                                        (fourier_inverse, mom, momentum_profile(st))):
        for g in (factors, profile):  # the three-factor and the 3D-evaluator branch
            shared = transform(g, (t, t, t), rule, om)
            copies = transform(g, (t.copy(), t.copy(), t.copy()), rule, om)
            assert np.array_equal(shared.view(float), copies.view(float))
    # three different axes of one length: one table over the three joined, split
    # back per axis, and the grid is the outer product of the three 1D transforms
    axes = (t, 0.5 * t, t[::-1].copy())
    want = np.einsum('a,b,c->abc', *(fourier_forward1d(f, a, rule, om)
                                     for f, a in zip(pos, axes)))
    assert np.array_equal(fourier_forward(pos, axes, rule, om).view(float), want.view(float))
    # equal axes share one table, whether or not they are one array
    builds = []
    table = transforms._factor_table
    monkeypatch.setattr(transforms, "_factor_table",
                        lambda *args: builds.append(args[-1]) or table(*args))
    fourier_forward(pos, (t, t.copy(), t.copy()), rule, om)
    assert len(builds) == 1
    # an int axis whose bytes are those of a float axis is another axis: 1.0 and the
    # int 4607182418800017408, a target far past where every level is 0
    same_bytes = np.array([1.0]).view(np.int64)
    got = fourier_forward(pos, (np.array([1.0]), same_bytes, np.array([1.0])), rule, om)
    assert got.shape == (1, 1, 1) and got[0, 0, 0] == 0
    assert fourier_forward(pos, (np.array([1.0]),) * 3, rule, om)[0, 0, 0] != 0


# tracemalloc bound of a 2000-point, order-64 evaluator list, in MB: the peak of einsum's
# own path (numpy 2.4.6). Chunked, with the level tables freed before the 64^3 samples,
# it reads 12.5; all points at once would hold a (2000, 64, 64) intermediate of 131 MB
EVALUATOR_PEAK_MB = 15.5


def test_evaluator_point_lists_agree_with_factors_in_bounded_memory():
    om, rule = 1.1, gauss_hermite(64)
    st = oscillator_state((2, 1, 3), om, 1.0, 1.3)
    pts = np.random.default_rng(24).uniform(-2.0, 2.0, (2000, 3))
    for transform, profile, factor in ((fourier_forward, position_profile(st), phi_1d),
                                       (fourier_inverse, momentum_profile(st), phi_1d_momentum)):
        want = transform([lambda x, l=l: factor(l, om, x) for l in st.q.as_tuple()],
                         pts, rule, om)
        transform(profile, pts[:3], rule, om)  # caches warm
        tracemalloc.start()
        try:
            got = transform(profile, pts, rule, om)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert got.shape == (2000,) and np.max(np.abs(got - want)) <= 1e-13
        assert peak <= EVALUATOR_PEAK_MB, peak
    # a list ending in a part chunk, at a low order, whose chunks are longer
    low = gauss_hermite(8)
    pts = np.random.default_rng(25).uniform(-2.0, 2.0, (2500, 3))
    want = fourier_forward([lambda x, l=l: phi_1d(l, om, x) for l in st.q.as_tuple()],
                           pts, low, om)
    got = fourier_forward(position_profile(st), pts, low, om)
    assert got.shape == (2500,) and np.max(np.abs(got - want)) <= 1e-13
    # no points, and one point alone
    assert fourier_forward(position_profile(st), np.zeros((2, 0, 3)), rule, om).shape == (2, 0)
    one = fourier_forward(position_profile(st), pts[0], rule, om)
    assert type(one) is complex and abs(one - fourier_of_state(st, pts[0], rule)) <= 1e-13


def test_a_point_list_builds_one_table(monkeypatch):
    # three distinct axes run one recurrence, and each axis keeps the bits of its
    # own 1D transform
    om, rule = 1.1, gauss_hermite(20)
    pos = [lambda xi, l=l: phi_1d(l, om, xi) for l in (2, 0, 1)]
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (9, 3))
    want = np.einsum('a,a,a->a', *(fourier_forward1d(f, a, rule, om)
                                   for f, a in zip(pos, pts.T)))
    builds = []
    table = transforms._factor_table
    monkeypatch.setattr(transforms, "_factor_table",
                        lambda *args: builds.append(args[-1]) or table(*args))
    got = fourier_forward(pos, pts, rule, om)
    assert len(builds) == 1 and builds[0].shape == (27,)
    assert np.array_equal(got.view(float), want.view(float))


HUGE = 1.7e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [1.1, 0.01, 1e5])
def test_huge_finite_targets_give_exactly_zero(omega):
    # past |scale t| = 38.6 every level underflows to 0; the clip keeps the
    # recurrence from overflowing there (inf * 0 = nan), with no numpy warning
    rule = gauss_hermite(16)
    st = oscillator_state((2, 1, 0), omega, 1.0, 1.3)
    g = lambda xi: phi_1d(2, omega, xi)
    assert fourier_forward1d(g, [HUGE], rule, omega).tolist() == [0j]
    assert fourier_forward1d(g, -HUGE, rule, omega) == 0j
    pts = np.array([[HUGE, 0.3, 1.0], [0.5, -HUGE, 2.0], [1e160, 0.0, -1e200]])
    for got in (fourier_of_state(st, pts, rule),
                fourier_forward(position_profile(st), pts, rule, omega),
                fourier_inverse(momentum_profile(st), pts, rule, omega)):
        assert got.tolist() == [0j] * 3
    grid = fourier_inverse(momentum_profile(st), tuple(pts.T), rule, omega)
    assert np.all(np.isfinite(grid)) and not np.any(grid[[0, 2]]) and not np.any(grid[:, 1])
    # entries short of the clip keep their bits
    t = np.array([HUGE, 0.3, -1e200, 45.0, -2.0, 1e140])
    for sign in (-1, +1):
        table = oscillator._factor_table(sign, 63, omega, t)
        assert np.array_equal(table[:, [1, 3, 4, 5]],
                              oscillator._factor_table(sign, 63, omega, t[[1, 3, 4, 5]]))
        assert not np.any(table[:, [0, 2]])


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
    # inverse of three forward-transformed 1D factors, one varying level
    om = 0.9
    rule = gauss_hermite(64)
    xi_pts = np.linspace(-2.0, 2.0, 9)
    ground = lambda xi: phi_1d(0, om, xi)
    fwd_ground = lambda p: fourier_forward1d(ground, p, rule, om)
    for l in range(5):
        g = lambda xi, l=l: phi_1d(l, om, xi)
        fwd = lambda p, g=g: fourier_forward1d(g, p, rule, om)
        back = fourier_inverse([fwd, fwd_ground, fwd_ground], (xi_pts, [0.0], [0.3]), rule, om)
        want = g(xi_pts) * ground(0.0) * ground(0.3)
        np.testing.assert_allclose(back[:, 0, 0], want.astype(complex), atol=1e-9)


def test_parseval():
    om = 1.3
    rule = gauss_hermite(64)
    ppts, peff = rescaled_nodes(rule, 1.0 / om)
    for ls in ((0, 0, 0), (1, 1, 1), (2, 0, 2)):
        st = oscillator_state(ls, om, 1.0, 1.1)
        fnum = fourier_forward(position_profile(st), (ppts,) * 3, rule, om)
        w3 = peff[:, None, None] * peff[None, :, None] * peff[None, None, :]
        total = float(np.sum(w3 * np.abs(fnum) ** 2))
        assert abs(total - 1.0) <= 1e-8, ls
        # by Fubini, the product of the per-axis norms: verify's Parseval check
        per_axis = math.prod(
            float(np.sum(peff * np.abs(fourier_forward1d(f, ppts, rule, om)) ** 2))
            for f in (lambda xi, l=l: phi_1d(l, om, xi) for l in ls))
        assert abs(per_axis - total) <= 1e-13, ls


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
    st = oscillator_state((2, 1, 1), om, 1.0, 1.0)
    # every level is below both orders, so doubling the order is a no-op
    reach = 0.9 * trust_momentum(gauss_hermite(16), om)
    axis = np.linspace(-reach, reach, 3)
    a = fourier_of_state(st, (axis, axis, axis), gauss_hermite(16))
    b = fourier_of_state(st, (axis, axis, axis), gauss_hermite(32))
    assert np.max(np.abs(a - b)) < 1e-12


def test_kernel_holds_beyond_oracle_reach():
    # at twice trust_momentum the direct quadrature (verify's oracle) is off by
    # more than 1e-2; the spectral kernel still matches the closed forms
    om = 1.0
    rule = gauss_hermite(32)
    far = 2.0 * trust_momentum(rule, om)
    targets = np.linspace(-far, far, 41)
    bump = lambda xi: np.exp(-0.5 * xi ** 2) * np.cos(1.7 * xi)
    bump_ft = 0.5 * (np.exp(-0.5 * (targets - 1.7) ** 2) + np.exp(-0.5 * (targets + 1.7) ** 2))
    pairs = [(bump, bump_ft)] + [(lambda xi, l=l: phi_1d(l, om, xi),
                                  (-1j) ** l * phi_1d_momentum(l, om, targets))
                                 for l in range(9)]
    for g, want in pairs:
        assert np.max(np.abs(fourier_forward1d(g, targets, rule, om) - want)) <= 1e-12
    assert np.max(np.abs(verify._direct_fourier(bump, targets, rule, om) - bump_ft)) > 1e-2


def test_state_transforms_warn_at_unresolved_levels():
    rule = gauss_hermite(8)
    for l, warns in ((7, False), (8, True)):
        st = oscillator_state((0, l, 1), 1.0, 1.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fourier_of_state(st, np.array([0.2, 0.0, -0.4]), rule)
            bargmann_of_state(st, (0.3, 0.1j, -0.5), rule)
        flagged = [w for w in caught if issubclass(w.category, InsufficientOrderWarning)]
        assert len(flagged) == (2 if warns else 0), l


# ---------------------------------------------------------------------------
# Segal-Bargmann

ALPHA_GRID = np.array([a + 1j * b for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)])


def test_bargmann_ground_state_is_unity():
    om = 1.3
    rule = gauss_hermite(32)
    got = bargmann_transform(lambda xi: phi_1d(0, om, xi), ALPHA_GRID, om, rule)
    np.testing.assert_allclose(got, np.ones_like(ALPHA_GRID), atol=1e-10)


def test_bargmann_kernel_sign_sweep():
    # the kernel maps the l-th factor to alpha^l/sqrt(l!); the kernel of the
    # opposite sign, the transform at -alpha, produces an extra (-1)^l, so it
    # cannot reproduce the stated monomials
    om = 1.1
    rule = gauss_hermite(48)
    for l in range(9):
        g = lambda xi, l=l: phi_1d(l, om, xi)
        want = ALPHA_GRID ** l / math.sqrt(math.factorial(l))
        plus = bargmann_transform(g, ALPHA_GRID, om, rule)
        minus = bargmann_transform(g, -ALPHA_GRID, om, rule)
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


@pytest.mark.parametrize("im", [0.0, 2.5])
def test_bargmann_holds_out_to_the_alpha_cap(im):
    # summed about 0 alone, rounding in the coefficients would grow by up to
    # max_l |alpha|^l / sqrt(l!) (3e21 at |alpha| = 10); the series about
    # Re(alpha) keeps the real axis, and a strip around it, at rounding level
    alpha = np.sqrt(100.0 - im ** 2) * np.linspace(-1.0, 1.0, 41) + 1j * im
    for order in (8, 48, 64, 256):
        rule = gauss_hermite(order)
        for l in (0, 1, 5, min(order - 1, 48)):
            for om in (0.7, 1.3):
                got = bargmann_transform(lambda xi: phi_1d(l, om, xi), alpha, om, rule)
                want = alpha ** l / math.sqrt(math.factorial(l))
                err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
                assert err <= (1e-13 if l <= 5 else 1e-11), (order, l, om, err)


def _horner_by_division(g, a, rule, scale, c):
    """The series as it was summed with a complex division per level."""
    centres, which = np.unique(c, return_inverse=True)
    y = rule.nodes[:, None]
    z = y + centres / math.sqrt(2.0)
    samples = np.asarray(g(scale * z)) * np.exp((z * z - y * y) / 2)
    coef = (rule.projector @ samples)[:, which]
    bound = (np.abs(rule.projector) @ np.abs(samples))[:, which]
    x, val, err = a - c, coef[-1], bound[-1]
    for l in range(rule.order - 1, 0, -1):
        val = coef[l - 1] + val * x / math.sqrt(l)
        err = bound[l - 1] + err * np.abs(x) / math.sqrt(l)
    return math.sqrt(scale) * val, err


@pytest.mark.parametrize("order", [1, 2, 48, 256])
def test_bargmann_horner_keeps_the_bits_of_a_complex_division(monkeypatch, order):
    rng = np.random.default_rng(order)
    om, rule = 0.9, gauss_hermite(order)
    r, phase = 10.0 * np.sqrt(rng.uniform(size=60)), np.exp(2j * np.pi * rng.uniform(size=60))
    disc = np.concatenate([r * phase, [0.0, 3.0, -10.0, 10j, 2.5 - 1e-300j]])
    top = min(order - 1, 40)
    integrands = [lambda xi: phi_1d(min(order - 1, 5), om, xi),
                  lambda xi: (0.6 - 0.8j) * phi_1d(0, om, xi) + 1j * phi_1d(top, om, xi)]
    for g in integrands:  # a real and a complex one
        for alpha in (disc, disc[:6].reshape(2, 3), np.zeros(0, complex), disc[0], 0.0):
            got = bargmann_transform(g, alpha, om, rule)
            with monkeypatch.context() as m:
                m.setattr(transforms, "_bargmann_series", _horner_by_division)
                want = bargmann_transform(g, alpha, om, rule)
            assert type(got) is type(want)
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_bargmann_product_matches_state_representation():
    om = 1.2
    rule = gauss_hermite(48)
    st = oscillator_state((2, 0, 1), om, 1.0, 1.0)
    alphas = (0.6 - 0.3j, -1.1 + 0.2j, 0.4j)
    got = bargmann_of_state(st, alphas, rule)
    a = FourVector(alphas[0], alphas[1], alphas[2], 0.0)
    want = psi_bargmann(st, a)
    assert abs(got - want) <= 1e-9


BARGMANN_POINTS = [[0.1, 0.2j, 0.3], [0.4, 0.5, 0.6j], [0.7, 0.8, 0.9]]


def test_bargmann_of_state_reads_an_array_as_points():
    # a (3, 3) array is three points, not three axes: for l = (1, 0, 0) the
    # value at a point is its first coordinate
    st = oscillator_state((1, 0, 0), 1.1, 1.0, 1.3)
    rule = gauss_hermite(32)
    got = bargmann_of_state(st, BARGMANN_POINTS, rule)
    assert got.shape == (3,)
    np.testing.assert_allclose(got, [0.1, 0.4, 0.7], rtol=0, atol=1e-14)
    singles = [bargmann_of_state(st, tuple(point), rule) for point in BARGMANN_POINTS]
    assert all(type(value) is complex for value in singles)
    np.testing.assert_allclose(got, singles, rtol=1e-14, atol=1e-15)
    # at rest the constraint coordinates are the spatial components
    a4 = np.concatenate([np.array(BARGMANN_POINTS), np.zeros((3, 1))], axis=1)
    np.testing.assert_allclose(got, psi_bargmann(st, a4), rtol=1e-14, atol=1e-15)


def test_bargmann_of_state_point_list_and_grid():
    om = 1.2
    rule = gauss_hermite(48)
    st = oscillator_state((2, 1, 3), om, 1.0, 1.0)
    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.5, 1.5, (7, 3)) + 1j * rng.uniform(-1.5, 1.5, (7, 3))
    got = bargmann_of_state(st, pts, rule)
    assert got.shape == (7,)
    a4 = np.concatenate([pts, np.zeros((7, 1))], axis=1)
    np.testing.assert_allclose(got, psi_bargmann(st, a4), rtol=1e-9, atol=1e-12)
    assert bargmann_of_state(st, pts.reshape(7, 1, 3), rule).shape == (7, 1)
    # a tuple of three complex axes is a product grid: the outer product of
    # the three 1D transforms
    axes = (pts[:4, 0], pts[:2, 1], pts[:5, 2])
    grid = bargmann_of_state(st, axes, rule)
    assert grid.shape == (4, 2, 5)
    per_axis = [bargmann_transform(lambda xi, l=l: phi_1d(l, om, xi), t, om, rule)
                for l, t in zip((2, 1, 3), axes)]
    assert np.array_equal(grid, np.einsum("a,b,c->abc", *per_axis))
    with pytest.raises(ValueError):
        bargmann_of_state(st, np.zeros((2, 4)), rule)


# ---------------------------------------------------------------------------
# input checks

PHI0 = lambda xi: phi_1d(0, 1.0, xi)
GROUND = oscillator_state((0, 0, 0), 1.0, 1.0, 1.0)
BAD_INPUTS = {
    "bargmann alpha nan": (bargmann_transform, (PHI0, math.nan, 1.0, gauss_hermite(16))),
    "bargmann omega nan": (bargmann_transform, (PHI0, 0.5, math.nan, gauss_hermite(16))),
    "forward1d target nan": (fourier_forward1d, (PHI0, math.nan, gauss_hermite(16), 1.0)),
    "forward omega nan": (fourier_forward, ([PHI0] * 3, np.zeros(3), gauss_hermite(16),
                                            math.nan)),
    "inverse target inf": (fourier_inverse, (position_profile(GROUND),
                                             np.array([math.inf, 0.0, 0.0]),
                                             gauss_hermite(16), 1.0)),
    "of_state target nan": (fourier_of_state, (GROUND, np.array([math.nan, 0.0, 0.0]),
                                               gauss_hermite(16))),
    "rescaled_nodes rate nan": (rescaled_nodes, (gauss_hermite(16), math.nan)),
    "rescaled_nodes rate True": (rescaled_nodes, (gauss_hermite(16), True)),
    "gauss_hermite 32.5": (gauss_hermite, (32.5,)),
    "gauss_hermite True": (gauss_hermite, (True,)),
    # unhashable: checked before the cache lookup, which would raise TypeError
    "gauss_hermite list": (gauss_hermite, ([32],)),
    "gauss_hermite dict": (gauss_hermite, ({32: 1},)),
}


@pytest.mark.parametrize("fn, args", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_non_finite_and_mistyped_inputs_raise_value_error(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# one complex coordinate, as an array of points, a list of points and a grid axis
COMPLEX_TARGETS = {
    "ndarray": np.array([[0.5j, 0.0, 0.0]]),
    "list": [[0.5j, 0.0, 0.0]],
    "grid axis": (np.array([0.5j]), np.zeros(1), np.zeros(1)),
}
LEVEL_100 = oscillator_state((1, 0, 0), 1.1, 1.0, 1.0)


@pytest.mark.parametrize("targets", COMPLEX_TARGETS.values(), ids=COMPLEX_TARGETS.keys())
@pytest.mark.parametrize("transform", [
    lambda t: fourier_of_state(LEVEL_100, t, gauss_hermite(16)),
    lambda t: fourier_inverse(momentum_profile(LEVEL_100), t, gauss_hermite(16), 1.1),
], ids=["fourier_of_state", "fourier_inverse"])
def test_complex_fourier_targets_raise(transform, targets):
    with pytest.raises(ValueError, match="must be real"):
        transform(targets)


@pytest.mark.parametrize("targets", [np.array([0.5j, 0.1]), [0.5j, 0.1], 0.5j])
def test_complex_fourier_forward1d_targets_raise(targets):
    with pytest.raises(ValueError, match="must be real"):
        fourier_forward1d(PHI0, targets, gauss_hermite(16), 1.0)


@pytest.mark.parametrize("targets", [np.array([0.5, -2.0], dtype=object), ["0.5", "-2"],
                                     np.array([0.5, -2.0], dtype=np.float32)],
                         ids=["object", "str", "float32"])
def test_real_fourier_targets_of_any_dtype_read_as_float64(targets):
    want = fourier_forward1d(PHI0, np.array([0.5, -2.0]), gauss_hermite(16), 1.0)
    got = fourier_forward1d(PHI0, targets, gauss_hermite(16), 1.0)
    assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("targets", COMPLEX_TARGETS.values(), ids=COMPLEX_TARGETS.keys())
def test_bargmann_targets_stay_complex(targets):
    # for l = (1, 0, 0) the value at a point is its first coordinate
    got = bargmann_of_state(LEVEL_100, targets, gauss_hermite(16))
    np.testing.assert_allclose(np.ravel(got), [0.5j], rtol=0, atol=1e-14)


def test_equal_orders_share_one_cached_rule():
    assert gauss_hermite(np.int64(24)) is gauss_hermite(24)
    before = gauss_hermite.cache_info().misses
    gauss_hermite(24)
    assert gauss_hermite.cache_info().misses == before


# ---------------------------------------------------------------------------
# stacked integrands: the 1D transforms take samples with leading stack axes, and each
# slice must have the bits of its own one-integrand call

def stack_of(integrands, shape):
    """One integrand returning the samples of all of them, stacked to shape + x.shape."""
    return lambda xi: np.reshape([g(xi) for g in integrands], (*shape, *np.shape(xi)))


def real_integrands(om):
    return ([lambda xi, l=l: phi_1d(l, om, xi) for l in range(9)]
            + [lambda xi: np.exp(-0.5 * om * xi ** 2) * np.cos(1.7 * xi)])


def complex_integrands(om):
    return [lambda xi, l=l: (0.6 - 0.8j) * phi_1d(l, om, xi) + 1j * phi_1d(l + 2, om, xi)
            for l in range(4)]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order, m", [(32, 600), (32, 1133), (32, 2000), (64, 333),
                                      (48, 7), (16, 1)])
@pytest.mark.parametrize("kind", [real_integrands, complex_integrands])
def test_stacked_fourier_integrands_keep_their_own_bits(order, m, kind):
    rng = np.random.default_rng(m)
    om, rule = 1.1, gauss_hermite(order)
    t = rng.uniform(-6.0, 6.0, m)
    singles = kind(om)
    for shape in ((len(singles),), (2, len(singles) // 2)):
        got = fourier_forward1d(stack_of(singles, shape), t, rule, om)
        assert got.shape == (*shape, m)
        for row, g in zip(got.reshape(len(singles), m), singles):
            assert_same_bits(row, fourier_forward1d(g, t, rule, om))


@pytest.mark.parametrize("order, m", [(48, 1000), (48, 7), (32, 1), (8, 60)])
@pytest.mark.parametrize("kind", [real_integrands, complex_integrands])
def test_stacked_bargmann_integrands_keep_their_own_bits(order, m, kind):
    rng = np.random.default_rng(m)
    om, rule = 1.1, gauss_hermite(order)
    alpha = rng.uniform(-3.0, 3.0, m) + 1j * rng.uniform(-3.0, 3.0, m)
    singles = kind(om)
    for shape in ((len(singles),), (2, len(singles) // 2)):
        got = bargmann_transform(stack_of(singles, shape), alpha, om, rule)
        assert got.shape == (*shape, m)
        for row, g in zip(got.reshape(len(singles), m), singles):
            assert_same_bits(row, bargmann_transform(g, alpha, om, rule))


@pytest.mark.parametrize("kind", [real_integrands, complex_integrands])
def test_stacked_integrands_at_one_target_give_an_array(kind):
    # one integrand at a scalar target gives a Python complex; a stack gives (...,)
    om, rule = 1.1, gauss_hermite(24)
    singles = kind(om)
    for shape in ((len(singles),), (2, len(singles) // 2)):
        g = stack_of(singles, shape)
        for transform, target in ((lambda g, t: fourier_forward1d(g, t, rule, om), 0.7),
                                  (lambda g, t: bargmann_transform(g, t, om, rule), 0.4 - 1.2j)):
            got = transform(g, target)
            assert isinstance(got, np.ndarray) and got.shape == shape
            want = [transform(f, target) for f in singles]
            assert all(type(w) is complex for w in want)
            assert_same_bits(got.ravel(), np.array(want))


def test_stacked_overlaps_keep_the_bits_of_each_pair():
    om, rule = 1.1, gauss_hermite(12)
    states = states_up_to(3, om, 1.0, 1.3)
    levels = np.array([s.q.as_tuple() for s in states])
    pairs = np.random.default_rng(3).integers(0, len(states), (40, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # level sums up to 6 are exact at order 12
        got = transforms._overlaps(levels[pairs[:, 0]], levels[pairs[:, 1]], om, rule)
        norms = transforms._overlaps(levels, levels, om, rule)
    want = [overlap_integral(states[i], states[j], rule) for i, j in pairs]
    assert_same_bits(got, np.array(want))
    assert_same_bits(norms, np.array([normalization_integral(s, rule) for s in states]))
    assert transforms._overlaps(levels[:0], levels[:0], om, rule).shape == (0,)


# ---------------------------------------------------------------------------
# spectral kernel: closed-form sums over random spectra

# derandomized and without an example database, as in test_batched.py
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def spectra(draw):
    """A rule, a spring constant and coefficients a_l on levels below the order."""
    rule = gauss_hermite(draw(st.sampled_from([4, 8, 16, 32, 64])))
    omega = draw(st.floats(0.5, 2.0))
    levels = draw(st.integers(1, rule.order))
    coeffs = draw(hnp.arrays(float, levels, elements=st.floats(-1.0, 1.0)))
    return rule, omega, coeffs


def unit_draws(n=7):
    return hnp.arrays(float, n, elements=st.floats(-1.0, 1.0))


def level_sum(factor, coeffs, omega, x, phase=1.0):
    return sum(a * phase ** l * factor(l, omega, x) for l, a in enumerate(coeffs))


def size(coeffs):
    """Scale of the level sum: its values are at most about sum |a_l|."""
    return max(1.0, float(np.sum(np.abs(coeffs))))


@SETTINGS
@given(spectra(), unit_draws())
def test_forward_of_level_sum_is_closed_form(spectrum, unit):
    rule, omega, coeffs = spectrum
    momenta = 2.0 * trust_momentum(rule, omega) * unit
    got = fourier_forward1d(lambda xi: level_sum(phi_1d, coeffs, omega, xi),
                            momenta, rule, omega)
    want = level_sum(phi_1d_momentum, coeffs, omega, momenta, -1j)
    assert np.max(np.abs(got - want)) <= 1e-12 * size(coeffs)


@SETTINGS
@given(spectra(), unit_draws(), unit_draws())
def test_inverse_of_level_sum_is_closed_form(spectrum, unit, unit2):
    rule, omega, coeffs = spectrum
    reach = 2.0 * trust_momentum(rule, omega)
    pts = reach * np.stack([unit, unit2, unit[::-1]], axis=-1)
    ground = lambda p: phi_1d_momentum(0, omega, p)
    got = fourier_inverse([lambda p: level_sum(phi_1d_momentum, coeffs, omega, p),
                           ground, ground], pts, rule, omega)
    want = (level_sum(phi_1d, coeffs, omega, pts[:, 0], 1j)
            * phi_1d(0, omega, pts[:, 1]) * phi_1d(0, omega, pts[:, 2]))
    assert np.max(np.abs(got - want)) <= 1e-12 * size(coeffs)


@SETTINGS
@given(spectra(), unit_draws(), unit_draws(), st.sampled_from([+1, -1]))
def test_bargmann_of_level_sum_is_closed_form(spectrum, re, im, sign):
    rule, omega, coeffs = spectrum
    alpha = 2.5 * (re + 1j * im)
    got = bargmann_transform(lambda xi: level_sum(phi_1d, coeffs, omega, xi),
                             sign * alpha, omega, rule)
    monomials = [(sign * alpha) ** l / math.sqrt(math.factorial(l)) for l in range(len(coeffs))]
    want = sum(a * m for a, m in zip(coeffs, monomials))
    scale = max(1.0, float(np.sum(np.abs(coeffs) * np.max(np.abs(monomials), axis=-1))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@SETTINGS
@given(spectra(), unit_draws(), unit_draws())
def test_inverse_after_forward_is_identity(spectrum, unit, unit2):
    rule, omega, coeffs = spectrum
    g = lambda xi: level_sum(phi_1d, coeffs, omega, xi)
    fwd = lambda p: fourier_forward1d(g, p, rule, omega)
    pts = 2.0 * trust_momentum(rule, omega) * np.stack([unit, unit2, unit[::-1]], axis=-1)
    got = fourier_inverse([fwd] * 3, pts, rule, omega)
    want = g(pts[:, 0]) * g(pts[:, 1]) * g(pts[:, 2])
    assert np.max(np.abs(got - want)) <= 1e-12 * size(coeffs) ** 3
