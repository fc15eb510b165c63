"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""
import math
import time

import numpy as np

from rqcm.constraint import constraint_coordinates, xi_jacobian, xi_directional_derivative
from rqcm.minkowski import FourVector, bound_system, general_boost, reduced_mass, rest_mass
from rqcm.oscillator import (degeneracy, oscillator_state, psi_bargmann, psi_momentum,
                             quantum_numbers_at_level, sigma_n)
from rqcm import transforms, verify


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_01_free_particle_mass():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        err = abs(rest_mass(m1, m2, 0.0) - (m1 + m2)) / (m1 + m2)
        worst = max(worst, err)
    _criterion(1, "rest mass reduces to m1 + m2 at sigma = 0 (rel <= 1e-12)",
               worst <= 1e-12 and time.time() - t0 < 1.0, f"worst {worst:.2e}")


def test_criterion_02_nr_energy_limit():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ratios = []
    for _ in range(20):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        mr = reduced_mass(m1, m2)
        err = lambda s: abs(rest_mass(m1, m2, s) - (m1 + m2 + s / mr))
        ratios.append(err(1e-3) / err(5e-4))
    ok = all(3.5 <= r <= 4.5 for r in ratios) and time.time() - t0 < 1.0
    _criterion(2, "M0 - (m1 + m2 + sigma/m_r) vanishes quadratically (ratio in [3.5, 4.5])",
               ok, f"ratios {min(ratios):.2f}..{max(ratios):.2f}")


def test_criterion_03_frame_invariance():
    t0 = time.time()
    report = verify.run_invariance_suite(trials=1000, vmax=0.99, seed=103)
    elapsed = time.time() - t0
    _criterion(3, "constraint invariants agree across frames (1e-9) and "
                  "projections stay orthogonal (1e-10) over 1000 draws",
               report.passed and elapsed < 5.0,
               f"max_rel {report.max_rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_04_jacobian_identity():
    rng = np.random.default_rng(104)
    worst_analytic = 0.0
    worst_fd = 0.0
    for _ in range(100):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
        sys = bound_system(m1, m2, rng.uniform(0, 0.5 * m1 * m2), v)
        x = FourVector.from_components(rng.uniform(-2, 2, 4))
        jac = xi_jacobian(sys)
        for j in range(3):
            field = lambda pt, j=j: constraint_coordinates(pt, sys)[..., j]
            grad_fd = verify.finite_difference_gradient4(field, x)
            for i in (1, 2, 3):
                want = 1.0 if i - 1 == j else 0.0
                worst_analytic = max(worst_analytic,
                                     abs(xi_directional_derivative(jac[j], i, sys) - want))
                worst_fd = max(worst_fd,
                               abs(xi_directional_derivative(grad_fd, i, sys) - want))
    _criterion(4, "constraint-coordinate Jacobian is the Kronecker delta "
                  "(1e-12 analytic, 1e-6 finite differences)",
               worst_analytic <= 1e-12 and worst_fd <= 1e-6,
               f"analytic {worst_analytic:.2e}, fd {worst_fd:.2e}")


def test_criterion_05_spectrum():
    ok = True
    for omega in (0.7, 1.0, 2.5):
        for n in range(11):
            ok = ok and sigma_n(omega, n) == omega * (1.5 + n)
    for n in range(11):
        ok = ok and len(quantum_numbers_at_level(n)) == degeneracy(n) == (n + 1) * (n + 2) // 2
    _criterion(5, "sigma_n = Omega (3/2 + n) exactly and level degeneracy "
                  "is (n+1)(n+2)/2 by enumeration for n <= 10", ok)


def test_criterion_06_pde_residuals():
    t0 = time.time()
    analytic = verify.run_pde_suite(mode="analytic", max_n=4, points=20, seed=106)
    fd = verify.run_pde_suite(mode="fd", max_n=4, points=20, seed=106)
    elapsed = time.time() - t0
    ok = (analytic.passed and analytic.tolerance == 1e-10
          and fd.passed and fd.tolerance == 1e-5 and elapsed < 30.0)
    _criterion(6, "field equations hold to 1e-10 (analytic, rest frame) and "
                  "1e-5 (finite differences, frames to v = 0.9) for n <= 4",
               ok, f"analytic {analytic.max_rel_err:.2e}, fd {fd.max_rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_07_ladder_relations():
    report = verify.run_ladder_suite(max_n=4, points=20, seed=107)
    explicit = [c for c in report.cases if c.check.startswith("explicit_")]
    decomposition = [c for c in report.cases if c.check.startswith("decomposition")]
    ok = (report.passed and all(c.rel_err <= 1e-5 for c in explicit)
          and all(c.rel_err <= 1e-5 for c in decomposition))
    _criterion(7, "explicit ladder operators reproduce sqrt(l) / sqrt(l+1) "
                  "pointwise and match their 4-space decomposition (1e-5)",
               ok, f"max_rel {report.max_rel_err:.2e}")


def test_criterion_08_fourier():
    t0 = time.time()
    report = verify.run_transform_suite(max_n=4, order=32, seed=108)
    elapsed = time.time() - t0
    modulus = [c for c in report.cases if c.check == "fourier_modulus"]
    roundtrip = [c for c in report.cases if c.check == "roundtrip"]
    ok = (report.passed and elapsed < 10.0
          and len(modulus) == 35 and all(c.rel_err <= 1e-8 for c in modulus)
          and roundtrip and all(c.rel_err <= 1e-8 for c in roundtrip))
    _criterion(8, "numeric transform matches the closed momentum modulus at "
                  "order 32 (1e-8) and inverts to the identity (1e-8)",
               ok, f"{elapsed:.1f}s")


def test_criterion_09_bargmann_monomials():
    omega = 1.1
    rule = transforms.gauss_hermite(48)
    grid = np.array([a + 1j * b for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)])
    worst = 0.0
    from rqcm.oscillator import phi_1d
    for l in range(9):
        got = transforms.bargmann_transform(
            lambda xi, l=l: phi_1d(l, omega, xi), grid, omega, rule)
        want = grid ** l / math.sqrt(math.factorial(l))
        worst = max(worst, float(np.max(np.abs(got - want))))
    _criterion(9, "Segal-Bargmann transform yields alpha^l/sqrt(l!) for l <= 8 "
                  "on a 5x5 complex grid (1e-9, adopted kernel sign +1)",
               worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_10_normalization():
    rule = transforms.gauss_hermite(32)
    worst = 0.0
    for state in (oscillator_state(q, 1.1, 1.0, 1.3)
                  for n in range(7) for q in quantum_numbers_at_level(n)):
        worst = max(worst, abs(transforms.normalization_integral(state, rule) - 1.0))
    _criterion(10, "normalisation integral is one to 1e-10 for all states n <= 6",
               worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_11_negative_controls():
    perturbed = verify.run_pde_suite(max_n=1, points=5,
                                     sigma_perturb=0.1, seed=111)
    wrong_sign = verify.run_transform_suite(max_n=1, bargmann_sign=-1, seed=111)
    under_resolved = verify.run_transform_suite(max_n=6, order=6, seed=111)
    flagged = any("insufficient order" in note for note in under_resolved.notes)
    ok = (not perturbed.passed) and (not wrong_sign.passed) \
        and (not under_resolved.passed) and flagged
    _criterion(11, "perturbed sigma, wrong Bargmann kernel sign and order-6 "
                   "under-resolution of level 6 each fail their suite",
               ok, f"flagged={flagged}")


def test_criterion_12_transforms_relate_4_space_constraint_spaces():
    # chart points y lifted to 4-space by the boost to the lab, x(y) = general_boost((y, 0), -v),
    # and shifted along P: every point of the class x(y) + lambda P has the coordinates y
    rng = np.random.default_rng(112)
    rule_f, rule_b = transforms.gauss_hermite(32), transforms.gauss_hermite(48)
    worst_f = worst_b = worst_shift = 0.0
    for _ in range(20):
        ls = tuple(rng.integers(0, 4, 3).tolist())
        state = oscillator_state(ls, rng.uniform(0.5, 2.0), *rng.uniform(0.5, 3.0, 2),
                                 rng.uniform(-0.5, 0.5, 3))
        v, P = state.sys.velocity, state.sys.P.components
        lift = lambda y: general_boost(np.concatenate([y, np.zeros((len(y), 1))], axis=1), -v)
        p = lift(rng.uniform(-1.5, 1.5, (6, 3)))
        p_shifted = p + rng.uniform(-2.0, 2.0, (6, 1)) * P
        a = lift(rng.uniform(-1.5, 1.5, (6, 3)) + 1j * rng.uniform(-1.5, 1.5, (6, 3)))
        a_shifted = a + (rng.uniform(-2.0, 2.0, (6, 1)) + 1j * rng.uniform(-2.0, 2.0, (6, 1))) * P
        momentum = (-1j) ** sum(ls) * psi_momentum(state, p)
        bargmann = psi_bargmann(state, a)
        scale = np.maximum(np.abs(bargmann), 1.0)
        f = [transforms.fourier_of_state(state, t, rule_f) for t in (p, p_shifted)]
        b = [transforms.bargmann_of_state(state, t, rule_b) for t in (a, a_shifted)]
        worst_f = max(worst_f, *(float(np.max(np.abs(g - momentum))) for g in f))
        worst_b = max(worst_b, *(float(np.max(np.abs(g - bargmann) / scale)) for g in b))
        worst_shift = max(worst_shift, float(np.max(np.abs(f[1] - f[0]))),
                          float(np.max(np.abs(b[1] - b[0]) / scale)))
    _criterion(12, "Fourier and Segal-Bargmann transforms of moving states at 4-momenta and "
                   "Bargmann 4-points match the closed forms and are constant along p + lambda P "
                   "(1e-13)", max(worst_f, worst_b, worst_shift) <= 1e-13,
               f"fourier {worst_f:.2e}, bargmann {worst_b:.2e}, shift {worst_shift:.2e}")
