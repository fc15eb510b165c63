"""The names `rqcm` exports: each module's, however they are looked up."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rqcm

# each module and the names the package exports from it, as imported eagerly before
# transforms and verify loaded on first use
EXPORTS = {
    "minkowski": ("FourVector", "BoundSystem", "minkowski_dot", "general_boost", "rest_mass",
                  "reduced_mass", "eta_params", "on_shell_momentum", "bound_system",
                  "cm_and_relative", "momentum_cm_and_relative", "perp_projection"),
    "constraint": ("constraint_coordinates", "xi_jacobian", "xi_directional_derivative",
                   "invariant_norm"),
    "oscillator": ("QuantumNumbers", "OscillatorState", "phi_1d", "phi_1d_momentum",
                   "phi_1d_bargmann", "phi_1d_derivative", "sigma_n", "nr_spring_constant",
                   "degeneracy", "quantum_numbers_at_level", "oscillator_state",
                   "psi_position", "psi_momentum", "psi_bargmann", "psi_position_gradient",
                   "ladder_apply", "ladder_explicit_value", "ladder_explicit_4d_value",
                   "momentum_profile", "MAX_LEVEL"),
    "transforms": ("QuadratureRule", "gauss_hermite", "rescaled_nodes",
                   "normalization_integral", "overlap_integral", "fourier_forward",
                   "fourier_inverse", "fourier_forward1d", "bargmann_transform",
                   "bargmann_of_state", "fourier_of_state", "trust_momentum",
                   "InsufficientOrderWarning"),
    "verify": ("VerificationReport", "CaseRecord", "finite_difference_gradient4",
               "run_invariance_suite", "run_pde_suite", "run_ladder_suite",
               "run_nr_limit_suite", "run_transform_suite", "run_all"),
}
NAMES = [name for module, names in EXPORTS.items() for name in (module, *names)]

# how a fresh interpreter looks the names up into the dict ns
LOOKUPS = {
    "from_import": "for name in NAMES:\n    exec(f'from rqcm import {name}', ns)\n",
    "attribute": "ns.update((name, getattr(rqcm, name)) for name in NAMES)\n",
    "star": "exec('from rqcm import *', ns)\n",
    # dir lists every name before any lazy one is looked up, and loads nothing
    "dir": ("assert set(NAMES) <= set(dir(rqcm))\n"
            "assert not {'rqcm.transforms', 'rqcm.verify'} & set(sys.modules)\n"
            "ns.update((name, getattr(rqcm, name)) for name in dir(rqcm))\n"),
}


@pytest.mark.parametrize("lookup", LOOKUPS.values(), ids=LOOKUPS.keys())
def test_every_name_is_the_object_of_its_module(lookup):
    probe = ("import importlib, sys\n"
             "import rqcm\n"
             f"EXPORTS = {EXPORTS!r}\n"
             f"NAMES = {NAMES!r}\n"
             "ns = {}\n"
             f"{lookup}"
             "for module, names in EXPORTS.items():\n"
             "    mod = importlib.import_module(f'rqcm.{module}')\n"
             "    assert ns[module] is mod, module\n"
             "    for name in names:\n"
             "        assert ns[name] is getattr(mod, name), name\n"
             "        assert vars(rqcm)[name] is ns[name], name  # bound, no hook the next time\n")
    src = str(Path(rqcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_all_lists_every_name_once():
    assert sorted(rqcm.__all__) == sorted(NAMES)


def test_a_lazy_name_is_its_module_attribute():
    assert rqcm.run_all is rqcm.verify.run_all
    assert rqcm.gauss_hermite is rqcm.transforms.gauss_hermite


# public once, with no caller in the package or the CLI
REMOVED = {"rqcm": ("position_profile", "states_up_to", "ON_SHELL_RTOL"),
           "rqcm.verify": ("finite_difference_second4", "finite_difference_directional2")}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names],
                         ids=lambda v: v)
def test_a_removed_name_is_not_importable(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'rqcm' has no attribute 'no_such_name'"):
        rqcm.no_such_name
    with pytest.raises(ImportError):
        exec("from rqcm import no_such_name", {})
