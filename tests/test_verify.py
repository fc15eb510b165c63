import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqcm.constraint import constraint_coordinates, xi_jacobian
from rqcm.minkowski import (FourVector, bound_system, general_boost, minkowski_dot,
                            on_shell_momentum, perp_projection)
from rqcm.oscillator import (ladder_apply, ladder_apply_explicit, oscillator_state,
                             psi_position, psi_position_gradient, quantum_numbers_at_level)
from rqcm import minkowski, verify
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


def test_second_differences_quadratic_scaling():
    # truncation-dominated regime: halving the step divides the internal
    # equation residual by roughly four
    st = oscillator_state((1, 0, 1), 1.0, 1.0, 1.3, (0.0, 0.5, 0.0))
    x = FourVector(0.4, -0.3, 0.6, 0.2)
    r_coarse = abs(verify._internal_residual_fd(st, x, st.sigma, 2e-2)[0])
    r_fine = abs(verify._internal_residual_fd(st, x, st.sigma, 1e-2)[0])
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


# ---------------------------------------------------------------------------
# report mechanics

def test_case_record_errors():
    c = CaseRecord("demo", {"k": 1}, 1.5, 1.0, "why", 0.1)
    assert c.abs_err == 0.5
    assert c.rel_err == pytest.approx(0.5 / 1.5)


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
    rep = run_nr_limit_suite(mass_pairs=[(1.0, 1.0), (2.0, 0.7)])
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


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def invariance_one_trial_at_a_time(trials, vmax, seed):
    """The invariance suite through the per-system API: one BoundSystem, two
    boosts, two maps and two FourVector projections per trial."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(trials):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        sys_a = bound_system(m1, m2, rng.uniform(0.0, 0.5 * m1 * m2), _velocity(rng, vmax))
        xp = rng.uniform(-2.0, 2.0, (2, 4))
        v = _velocity(rng, vmax)
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


def test_pde_suite_accepts_explicit_states():
    states = [oscillator_state((2, 0, 1), 1.4, 1.0, 2.0, (0.0, 0.5, 0.0))]
    rep = run_pde_suite(states=states, points=5)
    assert rep.passed
    assert {c.inputs["state"] for c in rep.cases if "state" in c.inputs} == {0}


def test_ladder_suite_passes():
    rep = run_ladder_suite(max_n=2, points=6)
    assert rep.passed
    checks = {c.check for c in rep.cases}
    assert {"explicit_lower", "explicit_raise", "annihilation", "commutator",
            "eigenvalue_identity", "decomposition_state",
            "decomposition_field"} <= checks


def ladder_one_pair_at_a_time(max_n, points, seed):
    """The ladder suite through the per-call API: one ladder_apply_explicit and
    one psi_position of the new state per state, axis and direction."""
    rng = np.random.default_rng(seed)
    cases = []
    states = [oscillator_state(q, 1.0, 1.0, 1.3, _velocity(rng, 0.9))
              for n in range(max_n + 1) for q in quantum_numbers_at_level(n)]
    for idx, state in enumerate(states):
        for axis in (1, 2, 3):
            for direction in ("lower", "raise"):
                coeff, new_state = ladder_apply(direction, axis, state)
                xs = rng.uniform(-1.5, 1.5, (points, 4))
                gots = ladder_apply_explicit(direction, axis, state, xs,
                                             gradient=finite_difference_gradient4)
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
        cases.extend(verify._decomposition_cases(
            "decomposition_state", {"state": idx},
            "4-space decomposition on eigenstates", state.omega, state.sys,
            xs, psi_position(state, xs), psi_position_gradient(state, xs)))
    sys = bound_system(*verify._draw_masses(rng), _velocity(rng, 0.9))
    for k in range(20):
        fld = verify._constrained_test_field(sys, rng.uniform(-1.0, 1.0, 4))
        x = rng.uniform(-1.5, 1.5, 4)
        cases.extend(verify._decomposition_cases(
            "decomposition_field", {"field": k},
            "4-space decomposition on test fields", 1.0, sys, x, fld(x),
            finite_difference_gradient4(fld, x)))
    return VerificationReport("ladder", 1e-5, cases, [f"seed={seed}", "vmax=0.9"])


@pytest.mark.parametrize("max_n, points, seed", [(2, 5, 0), (2, 5, 1), (2, 5, 2), (2, 5, 3),
                                                 (4, 20, 0)])
def test_stacked_ladder_suite_matches_per_pair_loop(max_n, points, seed):
    got = run_ladder_suite(max_n=max_n, points=points, seed=seed).to_json()
    assert got == ladder_one_pair_at_a_time(max_n, points, seed).to_json()


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


def test_run_all_aggregates():
    reports = verify.run_all(seed=3, invariance={"trials": 30},
                             pde={"max_n": 1, "points": 3},
                             ladder={"max_n": 1, "points": 3},
                             transforms={"max_n": 1})
    assert set(reports) == set(verify.SUITES)
    assert all(r.passed for r in reports.values())


# Check names, case counts and worst margins (rel_err / tol) of each suite at
# seed 0. A margin pinned at 1e-6 or more may move by a factor of 2 either
# way. A smaller one is rounding on an identity that holds exactly, whose
# value depends on the BLAS and the order of summation, so it need only
# stay below 1e-6.
DRIFT_TABLE = {
    "invariance": {"xi_sq": (1000, 1.06e-05), "pi_sq": (1000, 2.06e-05),
                   "xi_dot_pi": (1000, 2.12e-05), "perp_x": (1000, 2.36e-05),
                   "perp_p": (1000, 2.02e-05)},
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
