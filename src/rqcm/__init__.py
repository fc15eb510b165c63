"""Relativistic quantum constraint mechanics.

Lorentz-invariant constraint-space coordinates, the covariant 3D harmonic
oscillator in position, momentum and Bargmann representations, the
integral transforms that relate them, and a verification harness for the
invariances and operator identities the construction rests on.

``transforms`` and ``verify`` load on first use: the first lookup of either
module, or of a name it exports here, imports it and binds all of its names.
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

# module -> the names it exports here, all bound by the first lookup of any of them
_LAZY = {
    "transforms": ("QuadratureRule", "gauss_hermite", "rescaled_nodes",
                   "normalization_integral", "overlap_integral",
                   "fourier_forward", "fourier_inverse", "fourier_forward1d",
                   "bargmann_transform", "bargmann_of_state",
                   "fourier_of_state", "trust_momentum",
                   "InsufficientOrderWarning"),
    "verify": ("VerificationReport", "CaseRecord",
               "finite_difference_gradient4", "run_invariance_suite",
               "run_pde_suite", "run_ladder_suite", "run_nr_limit_suite",
               "run_transform_suite", "run_all"),
}

__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [name for module, names in _LAZY.items() for name in (module, *names)]

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module
            mod = import_module(f"{__name__}.{module}")
            globals().update({n: getattr(mod, n) for n in names}, **{module: mod})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
