import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqcm.constraint import constraint_coordinates, xi_jacobian
from rqcm.minkowski import (FourVector, bound_system, general_boost, minkowski_dot,
                            on_shell_momentum, perp_projection)
from rqcm.oscillator import (ladder_apply, ladder_explicit_4d_value, ladder_explicit_value,
                             momentum_profile, oscillator_state, phi_1d, phi_1d_bargmann,
                             phi_1d_momentum, position_profile, psi_position,
                             psi_position_gradient, quantum_numbers_at_level, states_up_to)
from rqcm.transforms import (bargmann_transform, fourier_forward1d, fourier_inverse,
                             fourier_of_state, gauss_hermite, normalization_integral,
                             overlap_integral, rescaled_nodes, trust_momentum)
from rqcm import minkowski, oscillator, transforms, verify
from rqcm.verify import (CaseRecord, VerificationReport, box4,
                         finite_difference_directional2,
                         finite_difference_gradient4, run_invariance_suite,
                         run_ladder_suite, run_nr_limit_suite, run_pde_suite,
                         run_transform_suite)


# ---------------------------------------------------------------------------
# finite-difference engine

def test_gradient_of_linear_field():
    P = on_shell_momentum(2.0, (0.3, -0.1, 0.5))
    field = lambda x: P.c1 * x[..., 0] + P.c2 * x[..., 1] + P.c3 * x[..., 2] - P.c4 * x[..., 3]
    got = finite_difference_gradient4(field, FourVector(0.2, 0.7, -1.1, 0.4))
    want = np.array([P.c1, P.c2, P.c3, -P.c4])
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_gradient_of_constant_field():
    got = finite_difference_gradient4(lambda x: np.full(x.shape[:-1], 3.25),
                                      FourVector(1, 2, 3, 4))
    np.testing.assert_array_equal(got, np.zeros(4))


def test_gradient_of_invariant_norm_field():
    sys = bound_system(1.0, 1.3, 0.2, (0.3, 0.1, -0.4))
    x = FourVector(0.5, -0.6, 0.8, 0.2)

    def field(pt):
        k = constraint_coordinates(pt, sys)
        return np.sum(k * k, axis=-1)

    got = finite_difference_gradient4(field, x)
    want = 2.0 * (constraint_coordinates(x, sys) @ xi_jacobian(sys))
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_second_differences_quadratic_scaling(monkeypatch):
    # truncation-dominated regime: halving the step divides the internal
    # equation residual by roughly four
    # (the step is the module's DEFAULT_H_SECOND, set here for each run)
    st = oscillator_state((1, 0, 1), 1.0, 1.0, 1.3, (0.0, 0.5, 0.0))
    # the arguments of oscillator._psi before the points for one state, and one point
    stack = (np.array([st.q.as_tuple()]), st.omega,
             *verify._systems(1.0, 1.3, [st.sigma], [(0.0, 0.5, 0.0)]))
    x = np.array([[[0.4, -0.3, 0.6, 0.2]]])
    monkeypatch.setattr(verify, "DEFAULT_H_SECOND", 2e-2)
    r_coarse = abs(verify._internal_residual_fd(stack, x, st.sigma)[0].item())
    monkeypatch.setattr(verify, "DEFAULT_H_SECOND", 1e-2)
    r_fine = abs(verify._internal_residual_fd(stack, x, st.sigma)[0].item())
    assert 3.0 <= r_coarse / r_fine <= 5.0, (r_coarse, r_fine)


def test_first_differences_quadratic_scaling():
    # same sentinel for the gradient engine used by the ladder checks
    st = oscillator_state((1, 0, 0), 1.0, 1.0, 1.3, (0.3, 0.0, 0.4))
    x = FourVector(0.4, -0.3, 0.6, 0.2)
    from rqcm.oscillator import psi_position, psi_position_gradient
    exact = psi_position_gradient(st, x)
    field = lambda pt: psi_position(st, pt)
    e_coarse = np.max(np.abs(finite_difference_gradient4(field, x, h=2e-3) - exact))
    e_fine = np.max(np.abs(finite_difference_gradient4(field, x, h=1e-3) - exact))
    assert 3.0 <= e_coarse / e_fine <= 5.0, (e_coarse, e_fine)


def test_directional_second_derivative():
    f = lambda x: (x[..., 0] + 2 * x[..., 3]) ** 2
    got = finite_difference_directional2(f, FourVector(0.3, 0, 0, -0.2), (1, 0, 0, 1))
    assert abs(got - 2 * 9.0) < 1e-5  # (d/dt)^2 (t + 2t + c)^2 = 2*3^2


def test_box_of_interval_field():
    f = lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2 - x[..., 3] ** 2
    got = box4(f, FourVector(0.3, -0.5, 0.2, 0.9))
    assert abs(got - 8.0) < 1e-5  # spatial seconds 2+2+2, minus the time second -2


_FD_ENGINES = {
    "gradient4": finite_difference_gradient4,
    "second4": lambda f, x, **kw: verify.finite_difference_second4(f, x, 3, **kw),
    "directional2": lambda f, x, **kw: finite_difference_directional2(f, x, (1, 0, 0, 1), **kw),
    "box4": box4,
}
_FD_POINTS = {"inf_list": [math.inf, 0, 0, 0], "nan_FourVector": FourVector(0, 0, 0, math.nan),
              "inf_in_a_stack": np.array([[0.3, 0.1, 0, 0.2], [0, -math.inf, 0, 0]])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", _FD_POINTS.values(), ids=_FD_POINTS.keys())
@pytest.mark.parametrize("engine", _FD_ENGINES.values(), ids=_FD_ENGINES.keys())
def test_finite_differences_refuse_a_non_finite_point(engine, x):
    # the point is refused before the field sees it; numpy warned and gave NaN here
    calls = []
    field = lambda pt: calls.append(pt) or np.sum(pt * pt, axis=-1)
    with pytest.raises(ValueError, match="non-finite 4-vector"):
        engine(field, x)
    assert not calls
    assert np.all(np.isfinite(engine(field, np.full(4, 0.3)))) and calls


def _refused(call, match):
    """call(field) raises ValueError matching match before it calls field."""
    calls = []
    field = lambda pt: calls.append(pt) or np.sum(pt * pt, axis=-1)
    with pytest.raises(ValueError, match=match):
        call(field)
    assert not calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [0.0, -1e-5, math.inf, math.nan, True, np.True_])
@pytest.mark.parametrize("engine", _FD_ENGINES.values(), ids=_FD_ENGINES.keys())
def test_finite_differences_refuse_a_bad_step(engine, h):
    # numpy warned and gave NaN here for 0 and inf, and gave NaN silently for NaN;
    # a bool step was read as 1
    _refused(lambda f: engine(f, np.full(4, 0.3), h=h), "step h must be positive and finite")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [4, -1, 1.0, True, "1", np.int64(4)], ids=repr)
def test_second_difference_refuses_a_bad_axis(mu):
    # IndexError here, and the time axis for -1
    _refused(lambda f: verify.finite_difference_second4(f, np.full(4, 0.3), mu),
             "mu must be an integer from 0 to 3")


def test_second_difference_reads_a_numpy_integer_axis():
    f = lambda x: x[..., 0] ** 2 + 3.0 * x[..., 2] ** 2
    x = FourVector(0.3, -0.5, 0.2, 0.9)
    for mu in range(4):
        got = verify.finite_difference_second4(f, x, np.int64(mu))
        assert got == verify.finite_difference_second4(f, x, mu)
        assert abs(got - [2.0, 0.0, 6.0, 0.0][mu]) < 1e-5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("direction", [(math.nan, 0, 0, 1), (0, math.inf, 0, 0), (1j, 0, 0, 1),
                                       np.array([1, 0, 0, 1j]), (1, 0, 0), np.ones((1, 4))],
                         ids=repr)
def test_directional_difference_refuses_a_bad_direction(direction):
    # NaN here for a NaN direction, TypeError for a complex one
    _refused(lambda f: finite_difference_directional2(f, np.full(4, 0.3), direction),
             "4-vector")


# ---------------------------------------------------------------------------
# report mechanics

def test_case_record_errors():
    c = CaseRecord("demo", {"k": 1}, 1.5, 1.0, "why", 0.1)
    assert c.abs_err == 0.5
    assert c.rel_err == pytest.approx(0.5 / 1.5)


_ERROR_VALUES = [0.0, -0.0, 0.5, -2.5, 1.0, 1e308, -5e-324, math.inf, -math.inf, math.nan]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_one_case_record_has_the_errors_of_a_block():
    # one case (shape ()) and a row of one have the errors of the same case in a
    # block: signs of zero included, and NaN wherever either has it
    same = lambda a, b: (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    observed, expected = (a.ravel() for a in np.meshgrid(_ERROR_VALUES, _ERROR_VALUES))
    block = CaseRecord("c", {"k": np.arange(observed.size)}, observed, expected, "p", 0.1)
    for k, (o, e) in enumerate(zip(observed.tolist(), expected.tolist())):
        one = CaseRecord("c", {"k": k}, o, e, "p", 0.1)
        row = CaseRecord("c", {"k": np.arange(1)}, [o], e, "p", 0.1)  # an array, one expected
        for got in (one, row):
            assert same(float(np.ravel(got.abs_err)[0]), float(block.abs_err[k])), (o, e)
            assert same(float(np.ravel(got.rel_err)[0]), float(block.rel_err[k])), (o, e)
    rep = VerificationReport("demo", 0.1, [CaseRecord("c", {}, 1.5, 1.0, "p", 0.1),
                                           CaseRecord("c", {"k": np.arange(2)}, [1.0, 4.0],
                                                      1.0, "p", 0.1)], [])
    assert rep.max_abs_err == 3.0 and rep.max_rel_err == 0.75 and not rep.passed


def test_report_pass_iff_within_tolerance():
    good = CaseRecord("a", {}, 1.0 + 1e-12, 1.0, "p", 1e-9)
    bad = CaseRecord("b", {}, 1.1, 1.0, "p", 1e-9)
    rep = VerificationReport("demo", 1e-9, [good], [])
    assert rep.passed and rep.max_rel_err <= rep.tolerance
    rep = VerificationReport("demo", 1e-9, [good, bad], [])
    assert not rep.passed and rep.max_rel_err > rep.tolerance


def test_report_fails_on_a_nan_case_in_any_position():
    good = CaseRecord("a", {}, 1.0, 1.0, "p", 1e-9)
    nan_case = CaseRecord("b", {}, math.nan, 1.0, "p", 1e-9)
    block = CaseRecord("c", {"k": np.arange(3)}, [1.0, math.nan, 1.0], 1.0, "p", 1e-9)
    for records in ([good, nan_case], [nan_case, good], [good, block]):
        rep = VerificationReport("demo", 1e-9, records, [])
        assert not rep.passed
        assert math.isnan(rep.max_rel_err)


def test_block_record_expands_to_its_cases_in_c_order():
    observed = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    block = CaseRecord(["a", "b"], {"row": np.arange(3)[:, None], "tag": "t"},
                       observed, 2.5, "p", [0.1, 0.2])
    singles = [CaseRecord(check, {"row": row, "tag": "t"}, observed[row, col], 2.5, "p", tol)
               for row in range(3) for col, (check, tol) in enumerate((("a", 0.1), ("b", 0.2)))]
    rep = VerificationReport("demo", 0.1, [block], [])
    assert rep.to_json() == VerificationReport("demo", 0.1, singles, []).to_json()
    assert [(c.check, c.inputs["row"], c.observed) for c in rep.cases] == [
        (c.check, c.inputs["row"], c.observed) for c in singles]
    assert np.shape(block.rel_err) == (3, 2)


def test_report_serialization_schema():
    rep = run_nr_limit_suite()
    data = json.loads(rep.to_json())
    assert set(data) == {"suite", "tolerance", "cases", "max_abs_err",
                         "max_rel_err", "pass", "notes"}
    assert data["pass"] is True
    assert data["cases"][0].keys() == {"check", "inputs", "observed", "expected",
                                       "provenance", "tol", "abs_err", "rel_err"}
    # stable key order for golden-file diffs
    assert rep.to_json() == rep.to_json()


# strings with quotes, backslashes, newlines and non-ASCII text; NaN and +-inf
TEXTS = st.text(st.sampled_from('a"\\\n\té€😀') | st.characters(), max_size=5)
FLOATS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats()
INPUT_KINDS = [(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)), (float, FLOATS),
               (bool, st.booleans()), (object, TEXTS)]


@st.composite
def case_records(draw):
    """One record whose observed values fill a block, zero-size and larger than the
    writer's piece included, and whose other fields are each one value or a block."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)
                 | st.just((verify._BLOCK_CASES + 2,)))
    field = lambda dtype, elements: draw(elements | hnp.arrays(dtype, shape, elements=elements))
    inputs = {key: field(*draw(st.sampled_from(INPUT_KINDS)))
              for key in draw(st.lists(TEXTS, max_size=3, unique=True))}
    with np.errstate(all="ignore"):
        return CaseRecord(field(object, TEXTS), inputs,
                          draw(hnp.arrays(float, shape, elements=FLOATS)),
                          field(float, FLOATS), field(object, TEXTS), field(float, FLOATS))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(case_records(), max_size=3), TEXTS, FLOATS, st.lists(TEXTS, max_size=3))
def test_report_json_is_json_dumps_of_the_data_view(records, suite, tolerance, notes):
    with np.errstate(all="ignore"):
        rep = VerificationReport(suite, tolerance, records, notes)
    assert rep.to_json() == json.dumps(rep.to_dict(), sort_keys=True, indent=2)
    both = {suite: rep, "other": VerificationReport("other", 1e-9, [], ["é"])}
    assert "".join(verify._reports_json(both)) == json.dumps(
        {name: r.to_dict() for name, r in both.items()}, sort_keys=True, indent=2) + "\n"


# a broadcast column's shape and the record's, whose cases span more than one piece;
# the (1, 1500) column wraps around inside a piece
BROADCASTS = [((1, 1500), (3, 1500)), ((2500, 1), (2500, 3)), ((7,), (400, 7)),
              ((1, 3, 1), (700, 3, 2))]


@pytest.mark.parametrize("column, shape", BROADCASTS, ids=map(str, BROADCASTS))
def test_broadcast_columns_over_several_pieces_are_json_dumps(column, shape):
    rng = np.random.default_rng(5)
    record = CaseRecord("c", {"x": rng.normal(size=column), "k": np.arange(math.prod(shape))
                              .reshape(shape)}, rng.normal(size=column), 0.0,
                        np.where(rng.random(column) < 0.5, "a", "b"), rng.uniform(size=column))
    rep = VerificationReport("demo", 1e-3, [record], [])
    assert math.prod(shape) > verify._BLOCK_CASES
    assert rep.to_json() == json.dumps(rep.to_dict(), sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1j, np.array([1.0, 2j])])
def test_report_json_rejects_a_complex_input_as_json_dumps_does(value):
    rep = VerificationReport("demo", 0.1, [CaseRecord("a", {"z": value}, 1.0, 1.0, "p", 0.1)], [])
    with pytest.raises(TypeError):
        json.dumps(rep.to_dict())
    with pytest.raises(TypeError):
        rep.to_json()


def test_suites_deterministic_under_seed():
    a = run_invariance_suite(trials=50, seed=7).to_json()
    b = run_invariance_suite(trials=50, seed=7).to_json()
    c = run_invariance_suite(trials=50, seed=8).to_json()
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# suite results

def test_invariance_suite_passes():
    rep = run_invariance_suite(trials=300)
    assert rep.passed
    assert rep.max_rel_err <= 1e-9


def test_invariance_suite_zero_boost_is_machine_exact():
    rep = run_invariance_suite(trials=100, vmax=1e-12)
    assert rep.max_abs_err <= 1e-13


def test_invariance_suite_validates_vmax():
    with pytest.raises(ValueError):
        run_invariance_suite(trials=1, vmax=1.5)


def _velocity(rng, vmax):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.0, vmax) * direction


def test_velocity_draws_keep_the_bits_of_one_draw():
    # a single draw is the formula above, and so are single masses; each row of a
    # block is that formula on the row's own normals and speed, all normals first
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(verify._draw_velocity(rng, 0.9), _velocity(ref, 0.9))
        m1, m2 = ref.uniform(0.5, 3.0, 2)
        assert verify._draw_masses(rng) == (m1, m2, ref.uniform(0.0, 0.5 * m1 * m2))
        n = seed % 7 + 1
        block = verify._draw_velocity(rng, 0.9, (n,))
        normals, speeds = ref.normal(size=(n, 3)), ref.uniform(0.0, 0.9, n)
        assert block.shape == (n, 3)
        for row, d, s in zip(block, normals, speeds):
            assert np.array_equal(row, d / np.linalg.norm(d) * s)


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def invariance_one_trial_at_a_time(trials, vmax, seed):
    """The invariance suite through the per-system API: the suite's blocks of draws
    (masses, then directions and speeds of both boosts, then x and p), and then one
    BoundSystem, two boosts, two maps and two FourVector projections per trial."""
    rng = np.random.default_rng(seed)
    m1s, m2s = rng.uniform(0.5, 3.0, (2, trials))
    sigmas = rng.uniform(0.0, 0.5 * m1s * m2s)
    directions = rng.normal(size=(2, trials, 3))
    speeds = rng.uniform(0.0, vmax, (2, trials))
    xps = rng.uniform(-2.0, 2.0, (trials, 2, 4))
    cases = []
    for trial in range(trials):
        v_a, v = (d / np.linalg.norm(d) * s
                  for d, s in zip(directions[:, trial], speeds[:, trial]))
        sys_a = bound_system(m1s[trial], m2s[trial], sigmas[trial], v_a)
        xp = xps[trial]
        sys_b = sys_a.boosted(v)
        xi_a, pi_a = constraint_coordinates(xp, sys_a).tolist()
        xi_b, pi_b = constraint_coordinates(general_boost(xp, v), sys_b).tolist()
        for name, a, b in (("xi_sq", _dot3(xi_a, xi_a), _dot3(xi_b, xi_b)),
                           ("pi_sq", _dot3(pi_a, pi_a), _dot3(pi_b, pi_b)),
                           ("xi_dot_pi", _dot3(xi_a, pi_a), _dot3(xi_b, pi_b))):
            cases.append(CaseRecord(name, {"trial": trial}, b, a,
                                    "frame-invariant combination", 1e-9))
        for name, w in zip(("perp_x", "perp_p"), xp.tolist()):
            perp = perp_projection(FourVector.from_components(w), sys_a.P, sys_a.M0)
            resid = abs(minkowski_dot(sys_a.P, perp))
            scale = max(float(np.linalg.norm(sys_a.P.components))
                        * float(np.linalg.norm(perp.components)), 1.0)
            cases.append(CaseRecord(name, {"trial": trial}, resid / scale, 0.0,
                                    "projection orthogonal to P", 1e-10))
    return VerificationReport("invariance", 1e-9, cases, [f"seed={seed}", f"vmax={vmax}"])


@pytest.mark.parametrize("seed, vmax", [(0, 0.99), (1, 0.99), (2, 0.99), (3, 0.99),
                                        (0, 1e-12)])
def test_stacked_invariance_suite_matches_per_trial_loop(seed, vmax):
    got = run_invariance_suite(trials=50, vmax=vmax, seed=seed).to_json()
    assert got == invariance_one_trial_at_a_time(50, vmax, seed).to_json()


@pytest.mark.parametrize("shape, v_shape",
                         [((5, 1), (5, 1, 3)), ((5,), (5, 3)), ((5, 6), (5, 1, 3))],
                         ids=["trials", "states", "moves"])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_systems_have_the_bits_of_bound_system(shape, v_shape, seed):
    # the suites' three stacks: trials, states, and each state's moves at its velocity;
    # masses and sigma from a few values each, so rows repeat as the suites' levels do
    rng = np.random.default_rng(seed)
    m1, m2 = rng.choice(rng.uniform(0.5, 3.0, 3), (2, *shape))
    sigma = rng.choice([0.0, 0.4, 1.7], shape)
    v = rng.uniform(-0.5, 0.5, v_shape)
    P, M0 = verify._systems(m1, m2, sigma, v)
    assert P.shape == (*shape, 4) and M0.shape == shape
    v = np.broadcast_to(v, (*shape, 3))
    systems = [bound_system(m1[i], m2[i], sigma[i], v[i]) for i in np.ndindex(shape)]
    assert P.tobytes() == np.array([s.P.components for s in systems]).tobytes()
    assert M0.tobytes() == np.array([s.M0 for s in systems]).tobytes()


@pytest.mark.parametrize("m1, sigma, v, message", [
    (0.0, 0.2, (0.1, 0.2, 0.3), "m1 must be positive"),
    (-1.0, 0.2, (0.1, 0.2, 0.3), "m1 must be positive"),
    (1.0, -0.6, (0.1, 0.2, 0.3), "negative inner radicand"),
    (1.0, 0.2, (1.0, 0.0, 0.0), "luminal"),
    (1.0, 0.2, (0.6, 0.6, 0.6), "luminal")])
def test_stacked_systems_refuse_what_bound_system_refuses(m1, sigma, v, message):
    with pytest.raises(ValueError, match=message):
        bound_system(m1, 1.3, sigma, v)
    # one bad row among good ones
    with pytest.raises(ValueError, match=message):
        verify._systems([1.0, m1, 2.0], 1.3, [0.2, sigma, 0.2], [(0.0, 0.1, 0.0), v, (0, 0, 0)])


@pytest.mark.parametrize("scale, message", [(1.01, "off shell"), (-1.0, "positive-energy")])
def test_invariance_suite_checks_the_boosted_momenta(monkeypatch, scale, message):
    boost = minkowski.general_boost
    monkeypatch.setattr(minkowski, "general_boost", lambda x, v: scale * boost(x, v))
    with pytest.raises(ValueError, match=message):
        run_invariance_suite(trials=5)


@pytest.mark.parametrize("suite, count, value", [
    (run_invariance_suite, "trials", 0),
    (run_invariance_suite, "trials", -3),
    (run_invariance_suite, "trials", 2.0),
    (run_pde_suite, "points", 0),
    (run_ladder_suite, "points", 0),
    (run_ladder_suite, "points", -1),
    (run_invariance_suite, "trials", True),  # a bool is an int, but not a count
    (run_ladder_suite, "points", True),
])
def test_empty_suites_raise(suite, count, value):
    with pytest.raises(ValueError, match=f"{count} must be a positive integer"):
        suite(**{count: value})


def test_transform_suite_checks_its_sign_before_running():
    with pytest.raises(ValueError, match="bargmann_sign must be"):
        run_transform_suite(bargmann_sign=0)


@pytest.mark.parametrize("max_n", [-1, 1.5, True])
@pytest.mark.parametrize("suite", [run_pde_suite, run_ladder_suite, run_transform_suite])
def test_negative_or_fractional_max_n_raises(suite, max_n):
    with pytest.raises(ValueError, match="max_n must be a non-negative integer"):
        suite(max_n=max_n)


def test_max_n_0_runs_the_ground_state():
    for rep in (run_pde_suite(max_n=0, points=3), run_ladder_suite(max_n=0, points=3)):
        assert rep.passed
        assert {c.inputs["state"] for c in rep.cases if "state" in c.inputs} == {0}
    rep = run_transform_suite(max_n=0)
    assert rep.passed
    assert [c.inputs["state"] for c in rep.cases if c.check == "fourier_modulus"] == [0]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_pde_suite_rejects_non_finite_sigma_perturb(value):
    with pytest.raises(ValueError, match="sigma_perturb must be finite"):
        run_pde_suite(sigma_perturb=value)


def test_pde_suite_modes():
    assert run_pde_suite(max_n=2, points=6, mode="analytic").passed
    assert run_pde_suite(max_n=2, points=6, mode="fd").passed
    with pytest.raises(ValueError):
        run_pde_suite(mode="symbolic")


def test_pde_suite_negative_control():
    rep = run_pde_suite(max_n=1, points=4, sigma_perturb=0.1)
    assert not rep.passed


def test_ladder_suite_passes():
    rep = run_ladder_suite(max_n=2, points=6)
    assert rep.passed
    checks = {c.check for c in rep.cases}
    assert {"explicit_lower", "explicit_raise", "annihilation", "commutator",
            "eigenvalue_identity", "decomposition_state",
            "decomposition_field"} <= checks


def decomposition_cases(check, inputs, provenance, omega, sys, x, value, grad):
    """The explicit ladder operator against its flat 4-space decomposition through the
    public functions, at one point or a batch (n, 4): one case per point (row) and
    axis and direction (column)."""
    diffs = [np.reshape(ladder_explicit_value(direction, axis, omega, sys, x, value, grad)
                        - ladder_explicit_4d_value(direction, axis, omega, sys, x, value, grad),
                        -1)
             for axis in (1, 2, 3) for direction in ("lower", "raise")]
    return [CaseRecord(check, {**inputs, "axis": np.repeat([1, 2, 3], 2)},
                       np.abs(np.stack(diffs, axis=-1)), 0.0, provenance, 1e-5)]


def ladder_one_pair_at_a_time(max_n, points, seed):
    """The ladder suite through the per-call API: one ladder_explicit_value with a
    finite-difference gradient and one psi_position of the new state per state,
    axis and direction."""
    rng = np.random.default_rng(seed)
    cases = []
    states = [oscillator_state(q, 1.0, 1.0, 1.3, _velocity(rng, 0.9))
              for n in range(max_n + 1) for q in quantum_numbers_at_level(n)]
    for idx, state in enumerate(states):
        for axis in (1, 2, 3):
            for direction in ("lower", "raise"):
                coeff, new_state = ladder_apply(direction, axis, state)
                xs = rng.uniform(-1.5, 1.5, (points, 4))
                field = lambda pt: psi_position(state, pt)
                gots = ladder_explicit_value(direction, axis, state.omega, state.sys, xs,
                                             field(xs), finite_difference_gradient4(field, xs))
                if new_state is None:
                    for k, got in enumerate(gots):
                        cases.append(CaseRecord("annihilation",
                                                {"state": idx, "axis": axis, "point": k},
                                                abs(got), 0.0,
                                                "lowering the ground level gives zero", 1e-8))
                else:
                    wants = coeff * psi_position(new_state, xs)
                    scale = max(max(abs(w) for w in wants), 1e-3)
                    for k, (got, want) in enumerate(zip(gots, wants)):
                        cases.append(CaseRecord(f"explicit_{direction}",
                                                {"state": idx, "axis": axis, "point": k},
                                                abs(got - want) / scale, 0.0,
                                                "explicit operator vs ladder coefficient", 1e-5))
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
        xs = rng.uniform(-1.5, 1.5, (3, 4))
        cases.extend(decomposition_cases(
            "decomposition_state", {"state": idx},
            "4-space decomposition on eigenstates", state.omega, state.sys,
            xs, psi_position(state, xs), psi_position_gradient(state, xs)))
    sys = bound_system(*verify._draw_masses(rng), _velocity(rng, 0.9))
    for k in range(20):
        fld = verify._constrained_test_field(sys, rng.uniform(-1.0, 1.0, 4))
        x = rng.uniform(-1.5, 1.5, 4)
        cases.extend(decomposition_cases(
            "decomposition_field", {"field": k},
            "4-space decomposition on test fields", 1.0, sys, x, fld(x),
            finite_difference_gradient4(fld, x)))
    return VerificationReport("ladder", 1e-5, by_check(cases, LADDER_GROUPS),
                              [f"seed={seed}", "vmax=0.9"])


def by_check(records, groups):
    """The records stably sorted by the group of their check, in the order of groups:
    a suite's report lists its cases check by check, each check state by state."""
    return sorted(records, key=lambda record: groups[record.check])


LADDER_GROUPS = {"annihilation": 0, "explicit_lower": 0, "explicit_raise": 0, "commutator": 1,
                 "eigenvalue_identity": 2, "decomposition_state": 3, "decomposition_field": 4}
PDE_GROUPS = {"internal_equation": 0, "cm_wave": 1, "transversality": 2}


@pytest.mark.parametrize("max_n, points, seed", [(2, 5, 0), (2, 5, 1), (2, 5, 2), (2, 5, 3),
                                                 (4, 20, 0)])
def test_stacked_ladder_suite_matches_per_pair_loop(max_n, points, seed):
    got = run_ladder_suite(max_n=max_n, points=points, seed=seed).to_json()
    assert got == ladder_one_pair_at_a_time(max_n, points, seed).to_json()


def _phi_second(l, xi):
    """phi_l'' at Omega = 1 from the recurrence algebra, through phi_1d:
    sqrt(l(l-1))/2 phi_{l-2} - (2l+1)/2 phi_l + sqrt((l+1)(l+2))/2 phi_{l+2}."""
    down = math.sqrt(l * (l - 1)) / 2.0 * phi_1d(l - 2, 1.0, xi) if l >= 2 else 0.0
    return (down - (2.0 * l + 1.0) / 2.0 * phi_1d(l, 1.0, xi)
            + math.sqrt((l + 1) * (l + 2)) / 2.0 * phi_1d(l + 2, 1.0, xi))


def pde_one_state_at_a_time(max_n, points, seed, mode="fd", sigma_perturb=0.0):
    """The pde suite through the per-state API at Omega = 1: per state, psi_position on
    its points with box4 and finite_difference_directional2 (or the closed-form factor
    derivatives), box4 of the plane-wave phase, and the transversality gradients, each
    point's residual and contraction in Python floats; the draws as the suite's."""
    rng = np.random.default_rng(seed)
    fd = mode == "fd"
    tol = 1e-5 if fd else 1e-10
    states = [oscillator_state(q, 1.0, 1.0, 1.3, _velocity(rng, 0.9) if fd else (0, 0, 0))
              for n in range(max_n + 1) for q in quantum_numbers_at_level(n)]
    cases = []
    for idx, state in enumerate(states):
        sys, sigma = state.sys, state.sigma + sigma_perturb * state.omega
        xs = rng.uniform(-1.5, 1.5, (points, 4))
        xis = constraint_coordinates(xs, sys)
        field = lambda pt: psi_position(state, pt).real
        if fd:  # sum d2/dxi2 = box - (P^mu d_mu / M0)^2
            laps = box4(field, xs) - finite_difference_directional2(
                field, xs, sys.P.components / sys.M0)
        else:
            ls = state.q.as_tuple()
            phis = [phi_1d(l, 1.0, xis[:, k]) for k, l in enumerate(ls)]
            secs = [_phi_second(l, xis[:, k]) for k, l in enumerate(ls)]
            laps = (secs[0] * phis[1] * phis[2] + phis[0] * secs[1] * phis[2]
                    + phis[0] * phis[1] * secs[2])
        resids, scales = [], []
        for xi, lap, psi in zip(xis, laps.tolist(), field(xs).tolist()):
            resids.append(-lap + 1.0 * 1.0 * float(xi @ xi) * psi - 2.0 * sigma * psi)  # Omega^2
            scales.append(abs(2.0 * sigma * psi))
        for k, resid in enumerate(resids):
            cases.append(CaseRecord("internal_equation", {"state": idx, "point": k, "mode": mode},
                                    resid / max(max(scales), 1e-30), 0.0,
                                    "internal oscillator equation", tol))
        if fd:
            x0, X0 = rng.uniform(-1.0, 1.0, 4), rng.uniform(-2.0, 2.0, 4)
            lap = box4(lambda X: psi_position(state, x0, X), X0, 1e-4)
            want = sys.M0 ** 2 * psi_position(state, x0, X0)
            cases.append(CaseRecord("cm_wave", {"state": idx},
                                    abs(lap - want) / max(abs(want), 1.0), 0.0,
                                    "plane-wave phase, finite differences", tol))
        else:
            cases.append(CaseRecord("cm_wave", {"state": idx}, -minkowski_dot(sys.P, sys.P),
                                    sys.M0 ** 2, "plane-wave phase, exact", tol))
        xs = rng.uniform(-1.5, 1.5, (3, 4))
        grads = (finite_difference_gradient4(field, xs) if fd
                 else psi_position_gradient(state, xs).real)
        norm = float(np.linalg.norm(sys.P.components))
        for axis, grad in enumerate(grads, 1):
            contraction = float(grad[:3] @ sys.P.spatial) + sys.P.c4 * grad[3]
            cases.append(CaseRecord("transversality", {"state": idx, "axis": axis},
                                    contraction / max(norm * math.sqrt(grad @ grad), 1e-3), 0.0,
                                    "P^mu d_mu psi = 0", tol))
    notes = [f"seed={seed}", f"mode={mode}", f"sigma_perturb={sigma_perturb}"]
    return VerificationReport("pde", tol, by_check(cases, PDE_GROUPS), notes)


@pytest.mark.parametrize("max_n, points, seed, mode, sigma_perturb", [
    (2, 5, 0, "fd", 0.0), (2, 5, 1, "fd", 0.0), (2, 5, 2, "fd", 0.0), (1, 1, 3, "fd", 0.0),
    (2, 5, 4, "fd", 0.1), (2, 5, 5, "analytic", 0.0), (3, 4, 6, "analytic", 0.1),
    (4, 20, 0, "fd", 0.0), (4, 20, 20024051, "fd", 0.0)])
def test_stacked_pde_suite_matches_per_state_loop(max_n, points, seed, mode, sigma_perturb):
    got = run_pde_suite(points, mode, seed, sigma_perturb, max_n)
    want = pde_one_state_at_a_time(max_n, points, seed, mode, sigma_perturb)
    assert got.to_json() == want.to_json()
    if not sigma_perturb:
        # seed 20024051 fails at the defaults, in the stacked suite and in the loop alike
        assert got.passed == (seed != 20024051)


def transforms_one_state_at_a_time(max_n=4, order=32, bargmann_sign=+1, seed=0):
    """The transforms suite through the public API, one state or integrand per call:
    fourier_of_state and momentum_profile per state, the factors' forward transforms
    and fourier_inverse per state, bargmann_transform per level, normalization_integral
    and overlap_integral per state or pair, and the direct quadratures per integrand;
    the draws as the suite's."""
    omega, m1, m2, tol = 1.1, 1.0, 1.3, 1e-8
    rng = np.random.default_rng(seed)
    notes = [f"seed={seed}", f"order={order}"]
    rule, rule_rt, rule_bg = gauss_hermite(order), gauss_hermite(64), gauss_hermite(48)
    pool = states_up_to(max(max_n, 6), omega, m1, m2)
    up_to = lambda n: [state for state in pool if state.q.n <= n]
    states = up_to(max_n)
    reach = 3.5 * math.sqrt(omega)
    axis_targets = np.linspace(-reach, reach, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cube = np.ix_(axis_targets, axis_targets, axis_targets)
        errs = [np.max(np.abs(np.abs(fourier_of_state(state, (axis_targets,) * 3, rule))
                              - np.abs(momentum_profile(state)(*cube))))
                for state in states]
        cases = [CaseRecord("fourier_modulus", {"state": np.arange(len(states))}, errs, 0.0,
                            "numeric transform vs closed momentum form", tol)]
        factors = [lambda xi, l=l: phi_1d(l, omega, xi) for l in range(9)]
        phases = []
        for l, g in enumerate(factors[:5]):
            num = complex(verify._direct_fourier(g, 0.6 * math.sqrt(omega), rule, omega)[0])
            phases.append(num / phi_1d_momentum(l, omega, 0.6 * math.sqrt(omega)))
        notes.append("forward eigenphase per l (measured): "
                     + ", ".join(f"{z:.6f}" for z in phases))
        rt_targets = np.linspace(-2.5 / math.sqrt(omega), 2.5 / math.sqrt(omega), 4)
        ppts, peff = rescaled_nodes(rule_rt, 1.0 / omega)
        for idx, state in enumerate(states[:: max(1, len(states) // 7)]):
            fwd = [lambda p, f=f: fourier_forward1d(f, p, rule_rt, omega)
                   for f in oscillator._factors(phi_1d, state)]
            back = fourier_inverse(fwd, (rt_targets,) * 3, rule_rt, omega)
            truth = position_profile(state)(*np.ix_(rt_targets, rt_targets, rt_targets))
            cases.append(CaseRecord("roundtrip", {"state": idx}, np.max(np.abs(back - truth)),
                                    0.0, "inverse of forward is the identity", tol))
            cases.append(CaseRecord("parseval", {"state": idx},
                                    math.prod(np.sum(peff * np.abs(f(ppts)) ** 2) for f in fwd),
                                    1.0, "momentum norm equals position norm", tol))
        grid = np.array([a + 1j * b for a in (-2.0, -1.0, 0.0, 1.0, 2.0)
                         for b in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        errs = [np.max(np.abs(bargmann_transform(g, bargmann_sign * grid, omega, rule_bg)
                              - phi_1d_bargmann(l, omega, grid)))
                for l, g in enumerate(factors)]
        cases.append(CaseRecord("bargmann_monomial", {"l": np.arange(9)}, errs, 0.0,
                                "transform of the l-th factor", 1e-9))
        norms = [normalization_integral(state, rule) for state in up_to(6)]
        cases.append(CaseRecord("normalization", {"state": np.arange(len(norms))}, norms, 1.0,
                                "unit norm over the constraint space", 1e-10))
        base = up_to(2)
        pairs = rng.integers(0, len(base), (6, 2))
        pairs = pairs[[base[i].q != base[j].q for i, j in pairs.tolist()]]
        overlaps = [overlap_integral(base[i], base[j], rule) for i, j in pairs]
        cases.append(CaseRecord("orthogonality", {"i": pairs[:, 0], "j": pairs[:, 1]},
                                overlaps, 0.0, "distinct states are orthogonal", 1e-10))
        momenta = 0.75 * trust_momentum(rule_rt, omega) * rng.uniform(-1.0, 1.0, 8)
        alphas = bargmann_sign * (rng.uniform(-2.0, 2.0, 8) + 1j * rng.uniform(-2.0, 2.0, 8))
        integrands = [(f"phi_{l}", g) for l, g in enumerate(factors)]
        integrands.append(("gauss_cos",
                           lambda xi: np.exp(-0.5 * omega * xi ** 2) * np.cos(1.7 * xi)))
        errs = []
        for _, g in integrands:
            fourier = (fourier_forward1d(g, momenta, rule_rt, omega)
                       - verify._direct_fourier(g, momenta, rule_rt, omega))
            bargmann = (bargmann_transform(g, alphas, omega, rule_bg)
                        - verify._direct_bargmann(g, alphas, omega, rule_bg))
            errs.append([np.max(np.abs(fourier)), np.max(np.abs(bargmann))])
        cases.append(CaseRecord("kernel_oracle", {"transform": ["fourier", "bargmann"],
                                                  "integrand": [[n] for n, _ in integrands]},
                                errs, 0.0, "spectral kernel vs direct quadrature", 1e-12))
    for w in caught:
        if issubclass(w.category, transforms.InsufficientOrderWarning):
            note = f"insufficient order: {w.message}"
            if note not in notes:
                notes.append(note)
    return VerificationReport("transforms", tol, cases, notes)


@pytest.mark.parametrize("kwargs", [
    {"seed": 0}, {"seed": 1}, {"seed": 2}, {"seed": 3}, {"max_n": 2, "bargmann_sign": -1},
    {"max_n": 6, "order": 6}, {"max_n": 6, "order": 7}], ids=str)
def test_stacked_transform_suite_matches_per_state_loop(kwargs):
    got = run_transform_suite(**kwargs)
    want = transforms_one_state_at_a_time(**kwargs)
    assert got.to_json() == want.to_json()
    # the negative controls fail, the under-resolved order with its notes, in both alike
    assert got.passed == (kwargs.get("bargmann_sign", 1) == 1 and kwargs.get("order") != 6)
    assert any("insufficient order" in note for note in got.notes) == (kwargs.get("order") == 6)


# tracemalloc peaks, in MB, of the suites' per-state loops that stacking replaced, at a
# size that spans several chunks (numpy 2.4.6, Python 3.11): the chunks of states must
# stay within them
PER_STATE_PEAK_MB = {"ladder": ({"points": 500}, 7.46), "pde": ({"points": 500}, 1.42),
                     "transforms": ({"max_n": 12}, 0.418)}


@pytest.mark.parametrize("suite", sorted(PER_STATE_PEAK_MB))
def test_stacked_suites_keep_their_memory_bound(suite):
    run = verify.SUITES[suite]
    run()  # caches warm
    for kwargs, bound in (({}, 2.0), PER_STATE_PEAK_MB[suite]):
        tracemalloc.start()
        try:
            run(**kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= bound, (kwargs, peak)


@pytest.mark.parametrize("seed", [True, 1.5, "a", -1, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize("suite", verify.SUITES.values(), ids=verify.SUITES.keys())
def test_suites_refuse_a_bad_seed(suite, seed):
    # nr-limit ran seed 1 for True and wrote seed=True in its notes; numpy raised
    # TypeError for 1.5 and "a"
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        suite(seed=seed)


def test_a_numpy_integer_seed_is_the_int():
    assert run_nr_limit_suite(seed=np.int64(3)).to_json() == run_nr_limit_suite(seed=3).to_json()


@pytest.mark.parametrize("suite, small", [(run_pde_suite, {"max_n": 0, "points": 1}),
                                          (run_ladder_suite, {"max_n": 0, "points": 1}),
                                          (run_nr_limit_suite, {"seed": 1})],  # no size option
                         ids=["pde", "ladder", "nr-limit"])
def test_suites_hold_one_record_per_check_at_any_size(suite, small):
    # each check is one block over all states: the records do not grow with them
    assert len(suite(**small).records) == len(suite().records)


def test_nr_limit_suite_passes():
    rep = run_nr_limit_suite()
    assert rep.passed
    ratios = [c.inputs["ratio"] for c in rep.cases if c.check == "quadratic_convergence"]
    assert len(ratios) == 20
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_transform_suite_passes_and_records_phase():
    rep = run_transform_suite(max_n=2)
    assert rep.passed
    assert any("eigenphase" in note for note in rep.notes)


def test_transform_suite_negative_controls():
    rep = run_transform_suite(max_n=2, bargmann_sign=-1)
    assert not rep.passed
    bad = [c for c in rep.cases if c.check == "bargmann_monomial" and c.rel_err > c.tol]
    assert bad, "wrong kernel sign must break the monomial map"

    # level 6 at order 6 is the first the kernel cannot resolve; order 7 is exact
    rep = run_transform_suite(max_n=6, order=6)
    assert not rep.passed
    assert any("insufficient order" in note for note in rep.notes)
    rep = run_transform_suite(max_n=6, order=7)
    assert rep.passed
    assert not any("insufficient order" in note for note in rep.notes)


def test_transform_suite_passes_other_warnings_to_the_caller(monkeypatch):
    # only the order warnings become notes; any other meets the caller's filters
    forward = transforms.fourier_forward1d

    def warned(*args, **kwargs):
        warnings.warn("from inside the suite", RuntimeWarning)
        return forward(*args, **kwargs)

    monkeypatch.setattr(transforms, "fourier_forward1d", warned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="from inside the suite"):
            run_transform_suite(max_n=1)
    with pytest.warns(RuntimeWarning, match="from inside the suite"):
        rep = run_transform_suite(max_n=1)
    assert rep.passed and not any("inside" in note for note in rep.notes)


def test_run_all_aggregates():
    reports = verify.run_all(seed=3)
    assert set(reports) == set(verify.SUITES)
    assert all(r.passed for r in reports.values())


# Check names, case counts and worst margins (rel_err / tol) of each suite at
# seed 0. A margin pinned at 1e-6 or more may move by a factor of 2 either
# way. A smaller one is rounding on an identity that holds exactly, whose
# value depends on the BLAS and the order of summation, so it need only
# stay below 1e-6.
DRIFT_TABLE = {
    "invariance": {"xi_sq": (1000, 5.38e-06), "pi_sq": (1000, 1.09e-05),
                   "xi_dot_pi": (1000, 9.21e-05), "perp_x": (1000, 5.97e-06),
                   "perp_p": (1000, 6.66e-06)},
    "pde": {"internal_equation": (700, 0.255), "cm_wave": (35, 0.0576),
            "transversality": (105, 5.92e-05)},
    "ladder": {"annihilation": (900, 0.00559), "explicit_raise": (2100, 4.2e-05),
               "commutator": (105, 0.000888), "eigenvalue_identity": (35, 0.000161),
               "decomposition_state": (630, 8.33e-12), "explicit_lower": (1200, 3.29e-05),
               "decomposition_field": (120, 9.83e-08)},
    "nr-limit": {"quadratic_convergence": (20, 0.0154), "free_particle": (20, 0.000197),
                 "nr_energy": (1, 0.2), "schrodinger_form": (10, 0.0)},
    "transforms": {"fourier_modulus": (35, 2.78e-08), "roundtrip": (7, 1.5e-07),
                   "parseval": (7, 4.11e-07), "bargmann_monomial": (9, 4.04e-05),
                   "normalization": (84, 8.88e-06), "orthogonality": (5, 0.0),
                   "kernel_oracle": (20, 0.00533)},
}


@pytest.mark.parametrize("suite", sorted(DRIFT_TABLE))
def test_suite_checks_counts_and_margins_at_seed_0(suite):
    margins = {}
    for c in verify.SUITES[suite](seed=0).cases:
        margins.setdefault(c.check, []).append(c.rel_err / c.tol)
    assert ({check: len(m) for check, m in margins.items()}
            == {check: n for check, (n, _) in DRIFT_TABLE[suite].items()})
    for check, (_, pinned) in DRIFT_TABLE[suite].items():
        worst = np.max(margins[check])
        if pinned >= 1e-6:
            assert pinned / 2 <= worst <= 2 * pinned, (check, worst)
        else:
            assert worst <= 1e-6, (check, worst)
