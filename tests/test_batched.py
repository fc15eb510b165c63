"""Batched (..., 4) kinematics against the per-point FourVector path.

Every function that takes stacked 4-vectors must give, row for row, the
same bits as calling it on one FourVector at a time (np.array_equal, no
tolerance), for random moving states (|v| < 0.9). The same strategies
drive the boost, Jacobian and ladder identities at the end, which hold to
rounding.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqcm import constraint
from rqcm.constraint import constraint_coordinates, xi_directional_derivative, xi_jacobian
from rqcm.minkowski import (FourVector, bound_system, general_boost, minkowski_dot,
                            on_shell_momentum, perp_projection)
from rqcm.oscillator import (MAX_LEVEL, ladder_apply, oscillator_state, psi_bargmann,
                             psi_momentum, psi_position, psi_position_gradient)
from rqcm.transforms import MAX_ORDER, gauss_hermite, normalization_integral
from rqcm.verify import (box4, finite_difference_directional2, finite_difference_gradient4,
                         finite_difference_second4)

# derandomized and without an example database: tier-1 stays reproducible
# and writes nothing to the working tree
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

PSI = (psi_position, psi_momentum, psi_bargmann)

# |v| <= sqrt(3) * 0.51 < 0.9
velocities = st.tuples(*[st.floats(-0.51, 0.51)] * 3)
states = st.builds(
    lambda l, omega, m1, m2, v: oscillator_state(l, omega, m1, m2, v),
    st.tuples(*[st.integers(0, 4)] * 3), st.floats(0.5, 2.0), st.floats(0.5, 3.0),
    st.floats(0.5, 3.0), velocities)


def batches(n_max=5):
    return st.integers(1, n_max).flatmap(
        lambda n: hnp.arrays(float, (n, 4), elements=st.floats(-2.5, 2.5)))


@st.composite
def complex_batches(draw):
    re = draw(batches())
    im = draw(hnp.arrays(float, re.shape, elements=st.floats(-2.5, 2.5)))
    return re + 1j * im


def four(row) -> FourVector:
    return FourVector.from_components(row)


def rows(fn, *batches_):
    return np.array([fn(*map(four, r)) for r in zip(*batches_)])


@SETTINGS
@given(states, batches(), complex_batches())
def test_constraint_coordinates_rows(state, real, cplx):
    sys = state.sys
    for pts in (real, cplx):
        got = constraint_coordinates(pts, sys)
        assert got.shape == pts.shape[:-1] + (3,)
        assert np.array_equal(got, rows(lambda w: constraint_coordinates(w, sys), pts))


@SETTINGS
@given(velocities, batches(), complex_batches())
def test_general_boost_rows(v, real, cplx):
    for pts in (real, cplx):
        got = general_boost(pts, v)
        assert got.shape == pts.shape and got.dtype == pts.dtype
        assert np.array_equal(got, rows(lambda w: general_boost(w, v).components, pts))


@st.composite
def stacked_frames(draw):
    """n rows of 4-vectors and n velocities, n <= 5."""
    pts = draw(batches())
    return pts, draw(hnp.arrays(float, (len(pts), 3), elements=st.floats(-0.51, 0.51)))


@st.composite
def stacked_systems(draw):
    """n BoundSystems, one per row of a stacked frame, and n real 4-vectors."""
    pts, vs = draw(stacked_frames())
    masses = st.floats(0.5, 3.0)
    systems = []
    for v in vs:
        m1, m2 = draw(masses), draw(masses)
        sigma = draw(st.floats(0.0, 0.5 * m1 * m2))
        systems.append(bound_system(m1, m2, sigma, v))
    return systems, pts


def stack(systems):
    return (np.array([s.P.components for s in systems]), np.array([s.M0 for s in systems]))


@SETTINGS
@given(stacked_frames(), complex_batches())
def test_general_boost_stacked_velocities_rows(frames, cplx):
    real, vs = frames
    for pts in (real, cplx[:1].repeat(len(vs), axis=0)):
        got = general_boost(pts, vs)
        assert got.shape == pts.shape and got.dtype == pts.dtype
        want = [general_boost(four(p), v).components for p, v in zip(pts, vs)]
        assert np.array_equal(got, want)
    # one 4-vector seen from every frame, and every row of a (1, n) stack
    assert np.array_equal(general_boost(real[0], vs), [general_boost(four(real[0]), v).components
                                                       for v in vs])
    spread = general_boost(real[:, None], vs[None])
    assert spread.shape == (len(real), len(vs), 4)
    assert np.array_equal(spread[:, 0], [general_boost(four(p), vs[0]).components for p in real])


@SETTINGS
@given(stacked_systems(), complex_batches())
def test_stacked_systems_rows(systems_pts, cplx):
    systems, real = systems_pts
    P, M0 = stack(systems)
    for pts in (real, cplx[:1].repeat(len(systems), axis=0)):
        got = constraint._coordinates(pts, P, M0)
        want = [constraint_coordinates(four(p), s) for p, s in zip(pts, systems)]
        assert got.dtype == pts.dtype and np.array_equal(got, want)
    perp = perp_projection(real, P, M0)
    assert np.array_equal(perp, [perp_projection(four(w), s.P, s.M0).components
                                 for w, s in zip(real, systems)])


@SETTINGS
@given(stacked_frames(), st.floats(0.5, 4.0))
def test_stacked_on_shell_momentum_rows(frames, M0):
    _, vs = frames
    masses = M0 * np.linspace(1.0, 2.0, len(vs))
    got = on_shell_momentum(masses, vs)
    want = [on_shell_momentum(m, v).components for m, v in zip(masses.tolist(), vs)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [(1.0, 0.0, 0.0), (0.8, 0.8, 0.0), (np.nan, 0.0, 0.0),
                                 (np.inf, 0.0, 0.0)])
def test_one_bad_velocity_in_a_stack_raises(bad):
    vs = np.array([(0.1, 0.2, 0.3), bad, (0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="luminal|finite"):
        general_boost(np.ones((3, 4)), vs)
    with pytest.raises(ValueError, match="luminal|finite"):
        on_shell_momentum(np.full(3, 2.0), vs)


@pytest.mark.parametrize("x_shape, v_shape", [((3, 4), (2, 3)), ((2, 3, 4), (2, 3)),
                                              ((2, 2, 4), (3, 1, 3))])
def test_velocity_axes_that_do_not_broadcast_raise(x_shape, v_shape):
    with pytest.raises(ValueError):
        general_boost(np.ones(x_shape), np.full(v_shape, 0.1))


def test_one_bad_momentum_row_raises():
    P, M0 = stack([bound_system(1.0, 1.3, 0.2, v) for v in ((0.3, 0.0, 0.0), (0.0, -0.5, 0.1))])
    assert perp_projection(np.ones((2, 4)), P, M0).shape == (2, 4)
    off_shell, backwards = P.copy(), P.copy()
    off_shell[1, 3] *= 1.0 + 1e-6
    backwards[0, 3] *= -1.0
    for bad, message in ((off_shell, "off shell"), (backwards, "positive-energy"),
                         (P + 0j, "must be real")):
        with pytest.raises(ValueError, match=message):
            perp_projection(np.ones((2, 4)), bad, M0)


@SETTINGS
@given(states, batches(), complex_batches())
def test_psi_rows(state, real, cplx):
    for psi, pts in ((psi_position, real), (psi_momentum, real),
                     (psi_bargmann, real), (psi_bargmann, cplx)):
        X = pts.real[::-1] * 0.7
        got = psi(state, pts)
        assert got.shape == pts.shape[:-1]
        assert np.array_equal(got, rows(lambda w: psi(state, w), pts))
        with_phase = psi(state, pts, X)
        assert np.array_equal(with_phase, rows(lambda w, c: psi(state, w, c), pts, X))


@SETTINGS
@given(states, batches())
def test_psi_position_gradient_rows(state, pts):
    X = pts[::-1] * 0.7
    got = psi_position_gradient(state, pts, X)
    assert got.shape == pts.shape
    assert np.array_equal(got, rows(lambda w, c: psi_position_gradient(state, w, c), pts, X))


@SETTINGS
@given(states, batches(), st.integers(0, 3))
def test_finite_differences_rows(state, pts, mu):
    direction = state.sys.P.components / state.sys.M0
    engines = {
        "gradient": finite_difference_gradient4,
        "second": lambda f, x: finite_difference_second4(f, x, mu),
        "directional": lambda f, x: finite_difference_directional2(f, x, direction),
        "box": box4,
    }
    for field in (lambda pt: psi_position(state, pt), lambda pt: psi_position(state, pt).real):
        for name, engine in engines.items():
            got = engine(field, pts)
            want = np.array([engine(field, four(p)) for p in pts])
            assert np.array_equal(got, want), name


def loop_gradient(field, comps, h=1e-6):
    """Central differences one component and one point at a time, in Python arithmetic."""
    out = []
    for mu in range(4):
        step = h * max(1.0, abs(comps[mu]))
        up = comps.copy(); up[mu] += step
        dn = comps.copy(); dn[mu] -= step
        out.append((complex(field(up)) - complex(field(dn))) / (2.0 * step))
    return np.array(out)


def loop_box(field, comps, h=1e-5):
    total = 0.0
    for mu in range(4):
        step = h * max(1.0, abs(comps[mu]))
        up = comps.copy(); up[mu] += step
        dn = comps.copy(); dn[mu] -= step
        d2 = (complex(field(up)) - 2.0 * complex(field(comps))
              + complex(field(dn))) / (step * step)
        total = total + (d2 if mu < 3 else -d2)
    return total


@SETTINGS
@given(states, batches(), batches(1))
def test_finite_differences_match_point_loop(state, pts, X):
    # a phase makes the field's imaginary part nonzero; Python divides a
    # complex by a real part by part, and so must the engine
    field = lambda pt: psi_position(state, pt, X[0])
    grads = finite_difference_gradient4(field, pts)
    boxes = box4(field, pts)
    for k, comps in enumerate(pts):
        assert np.array_equal(grads[k], loop_gradient(field, comps))
        assert boxes[k] == loop_box(field, comps)


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4)])
def test_shapes(shape):
    state = oscillator_state((1, 2, 0), 1.1, 1.0, 1.3, (0.3, -0.2, 0.4))
    pts = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
    lead = shape[:-1]
    assert constraint_coordinates(pts, state.sys).shape == lead + (3,)
    assert general_boost(pts, (0.1, 0.2, 0.3)).shape == shape
    for psi in PSI:
        assert np.shape(psi(state, pts)) == lead
        assert np.shape(psi(state, pts, pts)) == lead
    assert psi_position_gradient(state, pts).shape == shape
    field = lambda pt: psi_position(state, pt)
    assert finite_difference_gradient4(field, pts).shape == shape
    assert np.shape(box4(field, pts)) == lead
    assert np.shape(finite_difference_second4(field, pts, 2)) == lead
    assert np.shape(finite_difference_directional2(field, pts, (1, 0, 0, 1))) == lead


def test_four_vector_gives_python_scalar():
    state = oscillator_state((1, 0, 2), 1.1, 1.0, 1.3, (0.3, -0.2, 0.4))
    x = FourVector(0.3, -0.4, 0.5, 0.2)
    for psi in PSI:
        assert type(psi(state, x)) is complex
        assert type(psi(state, x, x)) is complex
    assert isinstance(general_boost(x, (0.1, 0.2, 0.3)), FourVector)


@pytest.mark.parametrize("shape", [(), (3,), (5,), (2, 3)])
def test_trailing_axis_other_than_four_raises(shape):
    state = oscillator_state((0, 0, 0), 1.0, 1.0, 1.3, (0.3, 0.0, 0.0))
    bad = np.zeros(shape)
    field = lambda pt: psi_position(state, pt)
    calls = [lambda: constraint_coordinates(bad, state.sys),
             lambda: general_boost(bad, (0.1, 0.0, 0.0)),
             lambda: psi_position_gradient(state, bad),
             lambda: finite_difference_gradient4(field, bad),
             lambda: box4(field, bad),
             lambda: psi_position(state, np.zeros(4), bad)]
    calls += [lambda psi=psi: psi(state, bad) for psi in PSI]
    for call in calls:
        with pytest.raises(ValueError, match="trailing axis of length 4"):
            call()


# ---------------------------------------------------------------------------
# identities that hold to rounding

@SETTINGS
@given(stacked_frames())
def test_boost_round_trip_and_invariant_interval(frames):
    pts, vs = frames
    boosted = general_boost(pts, vs)
    np.testing.assert_allclose(general_boost(boosted, -vs), pts, rtol=0, atol=1e-12)
    np.testing.assert_allclose(minkowski_dot(boosted, boosted), minkowski_dot(pts, pts),
                               rtol=0, atol=1e-12)


@SETTINGS
@given(states, batches())
def test_xi_derivative_of_a_coordinate_field_is_the_kronecker_delta(state, pts):
    sys = state.sys
    jac = xi_jacobian(sys)
    for j in range(3):
        # exact partials of xi_j, and finite differences of the field at every point
        fd = finite_difference_gradient4(lambda pt: constraint_coordinates(pt, sys)[..., j], pts)
        for i in (1, 2, 3):
            delta = float(i - 1 == j)
            assert abs(xi_directional_derivative(jac[j], i, sys) - delta) <= 1e-12
            np.testing.assert_allclose(xi_directional_derivative(fd, i, sys), delta,
                                       rtol=0, atol=1e-8)


@SETTINGS
@given(st.tuples(*[st.integers(0, MAX_LEVEL - 1)] * 3), st.floats(0.5, 2.0), velocities)
def test_ladder_commutator_is_one_at_every_level(levels, omega, v):
    state = oscillator_state(levels, omega, 1.0, 1.3, v)
    for axis in (1, 2, 3):
        c_up, raised = ladder_apply("raise", axis, state)
        c_low, lowered = ladder_apply("lower", axis, state)
        # [a, a+] = a a+ - a+ a, with a+ a = 0 where lowering annihilates
        a_adag = c_up * ladder_apply("lower", axis, raised)[0]
        adag_a = c_low * ladder_apply("raise", axis, lowered)[0] if lowered else 0.0
        assert abs(a_adag - adag_a - 1.0) <= 1e-12, (levels, axis)


@SETTINGS
@given(states, batches(), batches(), velocities)
def test_invariants_agree_in_a_boosted_frame(state, x, p, v):
    n = min(len(x), len(p))
    frame = np.stack((np.broadcast_to(state.sys.P.components, (n, 4)), x[:n], p[:n]))

    def invariants(P, x, p):
        xi, pi = (constraint._coordinates(w, P, state.sys.M0) for w in (x, p))
        return np.stack([np.sum(xi * xi, -1), np.sum(pi * pi, -1), np.sum(xi * pi, -1)])

    a, b = invariants(*frame), invariants(*general_boost(frame, v))
    # relative to max(|a|, |b|, 1), to the invariance suite's 1e-9
    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.maximum(abs(a), abs(b)), 1.0))


@SETTINGS
@given(st.tuples(*[st.integers(0, MAX_LEVEL)] * 3), st.floats(0.5, 2.0), velocities, st.data())
def test_unit_norm_at_every_exact_order(levels, omega, v, data):
    # every order above the top level is exact, up to the largest rule
    order = data.draw(st.integers(max(levels) + 1, MAX_ORDER))
    state = oscillator_state(levels, omega, 1.0, 1.3, v)
    assert abs(normalization_integral(state, gauss_hermite(order)) - 1.0) <= 1e-12
