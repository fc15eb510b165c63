import json
import math

import numpy as np
import pytest

from rqcm.constraint import constraint_coordinates, xi_jacobian
from rqcm.minkowski import FourVector, bound_system, on_shell_momentum
from rqcm.oscillator import oscillator_state
from rqcm import verify
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
