"""Relativistic quantum constraint mechanics.

Lorentz-invariant constraint-space coordinates, the covariant 3D harmonic
oscillator in position, momentum and Bargmann representations, the
integral transforms that relate them, and a verification harness for the
invariances and operator identities the construction rests on.
"""

from .minkowski import (FourVector, BoundSystem,
                        minkowski_dot, general_boost, rest_mass, reduced_mass,
                        eta_params, on_shell_momentum, bound_system,
                        cm_and_relative, momentum_cm_and_relative,
                        perp_projection, ON_SHELL_RTOL)
from .constraint import (constraint_coordinates, xi_jacobian,
                         xi_directional_derivative, invariant_norm)
from .oscillator import (QuantumNumbers, OscillatorState, phi_1d,
                         phi_1d_momentum, phi_1d_bargmann, phi_1d_derivative, sigma_n,
                         nr_spring_constant, degeneracy, quantum_numbers_at_level,
                         oscillator_state, states_up_to, psi_position,
                         psi_momentum, psi_bargmann, psi_position_gradient,
                         ladder_apply, ladder_explicit_value, ladder_explicit_4d_value,
                         position_profile, momentum_profile, MAX_LEVEL)
from .transforms import (QuadratureRule, gauss_hermite, rescaled_nodes,
                         normalization_integral, overlap_integral,
                         fourier_forward, fourier_inverse, fourier_forward1d,
                         bargmann_transform, bargmann_of_state,
                         fourier_of_state, trust_momentum,
                         InsufficientOrderWarning)
from .verify import (VerificationReport, CaseRecord,
                     finite_difference_gradient4, run_invariance_suite,
                     run_pde_suite, run_ladder_suite, run_nr_limit_suite,
                     run_transform_suite, run_all)

__version__ = "0.1.0"
