import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqcm
from rqcm import cli, verify
from rqcm.cli import build_parser, main
from rqcm.minkowski import rest_mass
from rqcm.oscillator import sigma_n


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def test_spectrum_values(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--nmax", "2", "--omega", "1",
                           "--m1", "1", "--m2", "1")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["sigma"]) == 1.5
    assert float(rows[0]["M0"]) == rest_mass(1.0, 1.0, sigma_n(1.0, 0))
    assert rows[2]["degeneracy"] == "6"


def test_spectrum_formats_agree(capsys):
    code, csv_out, _ = run_cli(capsys, "spectrum", "--nmax", "3", "--omega", "0.7",
                               "--m1", "1.1", "--m2", "0.9", "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "spectrum", "--nmax", "3", "--omega", "0.7",
                                "--m1", "1.1", "--m2", "0.9", "--format", "json")
    assert code == 0
    crows = parse_csv(csv_out)
    jrows = json.loads(json_out)
    for c, j in zip(crows, jrows):
        for key in ("n", "degeneracy", "sigma", "M0"):
            assert float(c[key]) == float(j[key]), key


def test_spectrum_floats_round_trip(capsys):
    # 17 significant digits reproduce the doubles bit for bit
    _, out, _ = run_cli(capsys, "spectrum", "--nmax", "4", "--omega", "1.3",
                        "--m1", "1.0", "--m2", "2.0")
    for row in parse_csv(out):
        n = int(row["n"])
        assert float(row["sigma"]) == sigma_n(1.3, n)
        assert float(row["M0"]) == rest_mass(1.0, 2.0, sigma_n(1.3, n))


def test_eval_ground_state_profile(capsys):
    code, out, _ = run_cli(capsys, "eval", "--l", "0", "0", "0", "--omega", "1",
                           "--grid-min", "-3", "--grid-max", "3", "--samples", "31")
    assert code == 0
    rows = parse_csv(out)
    dens = [float(r["abs2_psi"]) for r in rows]
    assert max(dens) == dens[15]  # peak at xi = 0
    assert abs(float(rows[15]["xi"])) < 1e-12
    # symmetric Gaussian profile
    np.testing.assert_allclose(dens, dens[::-1], rtol=1e-12)


def test_eval_frame_equivalence(capsys):
    args = ["eval", "--l", "1", "0", "0", "--omega", "1.2", "--m1", "1", "--m2", "1.4",
            "--grid-min", "-2", "--grid-max", "2", "--samples", "9"]
    _, rest_out, _ = run_cli(capsys, *args)
    # boost along the grid axis so the 4-space sample points genuinely move
    _, moving_out, _ = run_cli(capsys, *args, "--v", "0.6", "0", "0")
    rest_rows, moving_rows = parse_csv(rest_out), parse_csv(moving_out)
    for a, b in zip(rest_rows, moving_rows):
        assert a["xi"] == b["xi"]
        assert abs(float(a["abs2_psi"]) - float(b["abs2_psi"])) <= 1e-10
    # the moving-frame sample points are genuinely different 4-space points
    assert any(a["c4"] != b["c4"] for a, b in zip(rest_rows, moving_rows))


def test_eval_momentum_width_scaling(capsys):
    # position width 1/sqrt(om) maps to momentum width sqrt(om):
    # |psi_m(om * u)|^2 = om^-3 |psi_p(u)|^2 for the ground state
    om = 4.0
    base = ["--l", "0", "0", "0", "--omega", str(om), "--samples", "9"]
    _, pos_out, _ = run_cli(capsys, "eval", *base, "--grid-min", "-2", "--grid-max", "2",
                            "--rep", "position")
    _, mom_out, _ = run_cli(capsys, "eval", *base, "--grid-min", "-8", "--grid-max", "8",
                            "--rep", "momentum")
    pos = parse_csv(pos_out)
    mom = parse_csv(mom_out)
    for p, m in zip(pos, mom):
        assert float(m["pi"]) == om * float(p["xi"])
        assert abs(float(m["abs2_psi"]) - float(p["abs2_psi"]) / om ** 3) <= 1e-12


def test_eval_bargmann_representation(capsys):
    code, out, _ = run_cli(capsys, "eval", "--l", "1", "0", "0", "--rep", "bargmann",
                           "--grid-min", "-2", "--grid-max", "2", "--samples", "5")
    assert code == 0
    rows = parse_csv(out)
    # monomial alpha^1: value equals the coordinate itself in the rest frame
    for r in rows:
        assert abs(float(r["re_psi"]) - float(r["alpha"])) < 1e-12


def test_eval_missing_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--l", "0", "0", "0",
                           "--config", "/nonexistent/config.json")
    assert code == 2
    assert "error" in err


def test_eval_rejects_bad_representation_from_config(tmp_path, capsys):
    cfg = tmp_path / "rep.json"
    cfg.write_text(json.dumps({"representation": "phase-space"}))
    code, _, err = run_cli(capsys, "eval", "--l", "0", "0", "0", "--config", str(cfg))
    assert code == 2
    assert "representation" in err


def test_eval_rejects_superluminal(capsys):
    code, _, err = run_cli(capsys, "eval", "--l", "0", "0", "0", "--v", "1", "0", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("spectrum", "--omega", "nan"),
    ("spectrum", "--m1", "inf"),
    ("eval", "--v", "nan", "0", "0"),
    ("eval", "--omega", "nan"),
    ("eval", "--m1", "inf"),
    ("transform", "--omega", "nan"),
    ("eval", "--grid-min", "nan", "--samples", "3"),
    ("transform", "--grid-max", "inf", "--samples", "3"),
    ("spectrum", "--hbar-omega", "nan"),
    ("eval", "--hbar-omega", "inf"),
    ("verify", "--suite", "pde", "--sigma-perturb", "inf"),
], ids=" ".join)
def test_non_finite_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == ""


# finite inputs whose tables overflow: alpha^64 before the division by sqrt(64!),
# and |psi|^2 of a finite psi
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    "eval --l 64 0 0 --rep bargmann --grid-min 1e10 --grid-max 2e10 --samples 3",
    "eval --l 64 0 0 --rep bargmann --grid-min 1e4 --grid-max 2e4 --samples 3",
], ids=["bargmann alpha^64", "abs2_psi overflow"])
def test_a_non_finite_table_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err
    assert "np.float64" not in err
    assert out == ""


# position and momentum factors clip their arguments where every level has underflowed,
# so the position column and a transform's closed form read exactly 0 there; the grid
# halves its bounds, so it spans the whole float range without overflow
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    "eval --l 64 0 0 --grid-min 1e300 --grid-max 1.7e308 --samples 3",
    "transform --l 1 0 0 --to momentum --grid-min 1e300 --grid-max 1.7e308 --samples 3",
    "eval --l 64 0 0 --grid-min=-1.7e308 --grid-max 1.7e308 --samples 3",
    "transform --l 1 0 0 --to momentum --grid-min=-1.7e308 --grid-max 1.7e308 --samples 3",
], ids=["position near the float maximum", "closed form near the float maximum",
        "position across the float range", "transform across the float range"])
def test_tables_near_the_float_maximum_are_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == 3
    for r in rows:
        assert all(math.isfinite(float(v)) for v in r.values())
        if abs(float(r.get("xi", r.get("pi")))) > 1e300:
            assert {float(v) for c, v in r.items() if c not in ("xi", "pi", "c1", "c4")} == {0.0}


@pytest.mark.filterwarnings("error")
def test_a_boost_past_the_float_range_is_a_usage_error(capsys):
    # the grid is finite, but its points boosted to |v| = 0.9 overflow
    code, out, err = run_cli(capsys, "eval", "--v", "0.9", "0", "0", "--grid-min=-1.7e308",
                             "--grid-max", "1.7e308", "--samples", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: non-finite boosted 4-vector") and err.count("\n") == 1


def test_grid_has_the_bits_of_linspace():
    # halving the bounds and doubling the samples moves no bit short of the subnormal range
    rng = np.random.default_rng(3)
    for _ in range(500):
        lo, hi = np.sort(rng.normal(size=2) * 10.0 ** rng.uniform(-300, 300, 2))
        samples = int(rng.integers(2, 300))
        args = build_parser().parse_args(["eval", f"--grid-min={float(lo)!r}",
                                          f"--grid-max={float(hi)!r}", "--samples", str(samples)])
        _, ts = cli._grid(args, {})
        assert ts.tobytes() == np.linspace(lo, hi, samples).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transform_near_the_float_maximum_is_zero(capsys):
    # the synthesis clips its targets past the envelope's underflow: exactly 0,
    # as is the closed form at level 0
    code, out, _ = run_cli(capsys, "transform", "--to", "momentum", "--grid-min", "1e300",
                           "--grid-max", "1.7e308", "--samples", "3")
    assert code == 0
    for r in parse_csv(out):
        assert {r[c] for c in ("re", "im", "abs", "abs_closed_form")} == {"0"}


MISTYPED_CONFIGS = [("eval", config) for config in (
    {"grid": {"samples": 2.5}},
    {"grid": {"samples": "41"}},
    {"grid": {"axis": True}},
    {"grid": [1, 2]},
    {"grid": {"min": "a"}},
    {"grid": {"max": math.inf}},
    {"v": 5},
    {"l": 5},
    {"l": [[1], 0, 0]},
    {"format": "xml"},
    5,
    {"m1": [1]},
    {"m2": True},
    {"omega": "2"},
)] + [
    ("spectrum", {"m1": [1]}),
    ("transform", {"order": [32]}),
    ("transform", {"order": 40.9}),
    ("transform", {"omega": "2"}),
    ("verify --suite nr-limit", {"seed": [1]}),
    ("verify --suite nr-limit", {"seed": 1.5}),
    ("verify --suite transforms", {"order": [32]}),
    ("verify --suite transforms", {"order": 40.9}),
]


# an `eval` case is named by its config alone, as before other commands were covered
@pytest.mark.parametrize("command, config", [
    pytest.param(command, config, id=json.dumps(config) if command == "eval"
                 else f"{command} {json.dumps(config)}")
    for command, config in MISTYPED_CONFIGS])
def test_mistyped_config_values_are_usage_errors(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *command.split(), "--config", str(cfg))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == ""


# JSON integers of 401 digits: too large for a float
@pytest.mark.parametrize("command, config", [
    ("spectrum", {"m1": 10 ** 400}),
    ("eval", {"grid": {"min": -10 ** 400}}),
], ids=["spectrum m1", "eval grid.min"])
def test_integers_beyond_float_range_are_usage_errors(tmp_path, capsys, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == ""


def test_transform_momentum_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "transform", "--l", "1", "0", "0", "--to", "momentum",
                           "--grid-min", "-2", "--grid-max", "2", "--samples", "9")
    assert code == 0
    for r in parse_csv(out):
        assert abs(float(r["abs"]) - float(r["abs_closed_form"])) <= 1e-9


def test_transform_bargmann(capsys):
    code, out, _ = run_cli(capsys, "transform", "--l", "2", "0", "0", "--to", "bargmann",
                           "--grid-min", "-1.5", "--grid-max", "1.5", "--samples", "7",
                           "--order", "48")
    assert code == 0
    for r in parse_csv(out):
        alpha = float(r["alpha"])
        want = alpha ** 2 / math.sqrt(2.0)
        assert abs(float(r["re"]) - want) <= 1e-9


@pytest.mark.parametrize("order", [48, 256])
def test_transform_bargmann_at_the_alpha_cap(capsys, order):
    code, out, _ = run_cli(capsys, "transform", "--l", "0", "0", "0", "--to", "bargmann",
                           "--grid-min", "-10", "--grid-max", "10", "--samples", "41",
                           "--order", str(order))
    assert code == 0
    for r in parse_csv(out):
        assert abs(float(r["abs"]) - float(r["abs_closed_form"])) <= 1e-13


@pytest.mark.parametrize("to, level, order", [
    ("momentum", 40, 32), ("momentum", 32, 32), ("bargmann", 48, 48)])
def test_transform_level_not_below_order_is_usage_error(capsys, to, level, order):
    # such a level is past what the order resolves: the table would print wrong numbers
    code, out, err = run_cli(capsys, "transform", "--l", str(level), "0", "0", "--to", to,
                             "--order", str(order), "--samples", "5",
                             "--grid-min", "-3", "--grid-max", "3")
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == ""


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m1": 2.0, "m2": 2.0, "omega": 1.0}))
    _, out, _ = run_cli(capsys, "spectrum", "--nmax", "0", "--config", str(cfg))
    assert float(parse_csv(out)[0]["M0"]) == rest_mass(2.0, 2.0, 1.5)
    # flags override the file
    _, out, _ = run_cli(capsys, "spectrum", "--nmax", "0", "--config", str(cfg),
                        "--m1", "3.0")
    assert float(parse_csv(out)[0]["M0"]) == rest_mass(3.0, 2.0, 1.5)


def test_config_supplies_state_and_grid(tmp_path, capsys):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({
        "m1": 1.0, "m2": 1.0, "omega": 1.0, "l": [1, 0, 0],
        "v": [0.0, 0.0, 0.0], "representation": "position",
        "grid": {"axis": 1, "min": -1.0, "max": 1.0, "samples": 5},
        "format": "json",
    }))
    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[0]["xi"] == -1.0
    assert abs(rows[2]["re_psi"]) < 1e-15  # odd state vanishes at the origin


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mass": 2.0}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--nmax", "1", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,degeneracy,sigma,M0")


def test_verify_passes_and_exit_code(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--suite", "nr-limit",
                           "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["nr-limit"]["pass"] is True
    assert "pass" in err


def test_verify_negative_control_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "pde", "--points", "3",
                             "--sigma-perturb", "0.1")
    assert code == 1
    assert "FAIL" in err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "--suite invariance --trials 0",
    "--suite invariance --trials -3",
    "--suite pde --points 0",
    "--suite ladder --points 0",
])
def test_verify_empty_suite_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv.split())
    assert code == 2
    assert err.startswith("error:") and f"must be an integer in [1, {sys.maxsize}], got" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    ("spectrum --hbar-omega -2", "Schroedinger frequency must be positive and finite, got -2.0"),
    ("spectrum --nmax -1", "nmax must be an integer >= 0, got -1"),
    ("verify --suite transforms --max-n -1", "max_n must be an integer in [0, 64], got -1"),
    ("verify --suite transforms --max-n 65", "max_n must be an integer in [0, 64], got 65"),
], ids=["hbar-omega -2", "nmax -1", "max-n -1", "max-n 65"])
def test_negative_inputs_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    ("--max-n -1", "max_n must be an integer in [0, 64], got -1"),
    ("--order 0", "order must be an integer in [1, 256], got 0"),
    ("--sigma-perturb nan", "sigma_perturb must be real and finite, got nan"),
    ("--points 0", f"points must be an integer in [1, {sys.maxsize}], got 0"),
    (f"--points {10 ** 41}", f"points must be an integer in [1, {sys.maxsize}], got {10 ** 41}"),
    ("--seed -1", "seed must be an integer >= 0, got -1"),
])
def test_verify_checks_every_option_before_any_suite_runs(capsys, monkeypatch, argv, message):
    def never(**kwargs):
        raise AssertionError("a suite ran before the options were checked")
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, never)
    code, out, err = run_cli(capsys, "verify", *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_all_default_passes(tmp_path, capsys):
    report = tmp_path / "all.json"
    code, _, err = run_cli(capsys, "verify", "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert set(data) == {"invariance", "pde", "ladder", "nr-limit", "transforms"}
    assert all(entry["pass"] for entry in data.values())


def test_verify_reports_byte_identical_under_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "verify", "--suite", "invariance", "--trials", "40",
                   "--seed", "5", "--report", str(a))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "invariance", "--trials", "40",
                   "--seed", "5", "--report", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_report_bytes_are_json_dumps_of_the_data_view(tmp_path, capsys):
    dumps = lambda reports: json.dumps({name: r.to_dict() for name, r in reports.items()},
                                       sort_keys=True, indent=2) + "\n"
    path = tmp_path / "all.json"
    assert run_cli(capsys, "verify", "--seed", "3", "--report", str(path))[0] == 0
    assert path.read_bytes() == dumps(verify.run_all(seed=3)).encode()
    code, out, _ = run_cli(capsys, "verify", "--suite", "invariance", "--trials", "40")
    assert code == 0
    assert out == dumps({"invariance": verify.run_invariance_suite(trials=40)})


VERIFY_ROUTES = [
    ("invariance", "--trials 5 --seed 2", {"trials": 5, "seed": 2}),
    ("invariance", "--trials 5 --points 2 --max-n 1", {"trials": 5}),
    ("pde", "--points 2", {"points": 2}),
    ("pde", "--points 2 --sigma-perturb 0.1", {"points": 2, "sigma_perturb": 0.1}),
    ("pde", "--points 2 --max-n 1 --order 8", {"points": 2}),
    ("ladder", "--points 2", {"points": 2}),
    ("ladder", "--points 2 --max-n 1 --sigma-perturb 0.1", {"points": 2}),
    ("nr-limit", "--seed 4 --trials 5 --points 2", {"seed": 4}),
    ("transforms", "--max-n 1", {"max_n": 1}),
    ("transforms", "--max-n 1 --order 16", {"max_n": 1, "order": 16}),
    ("transforms", "--max-n 1 --bargmann-sign -1", {"max_n": 1, "bargmann_sign": -1}),
    ("transforms", "--max-n 1 --points 2 --trials 5", {"max_n": 1}),
]


@pytest.mark.parametrize("suite, flags, kwargs", [
    pytest.param(*route, id=" ".join(route[:2])) for route in VERIFY_ROUTES])
def test_verify_flags_reach_the_suites_that_take_them(capsys, suite, flags, kwargs):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, *flags.split())
    report = verify.SUITES[suite](**kwargs)
    assert code == (0 if report.passed else 1)
    assert json.loads(out) == json.loads(json.dumps({suite: report.to_dict()}))


def _child(probe, *argv):
    """The stdout of probe run by a fresh interpreter with argv, which must exit 0."""
    src = str(Path(rqcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # every CLI command pays for what `import rqcm.cli` loads
    _child("import sys, rqcm.cli; assert 'numpy.polynomial' not in sys.modules")


def test_cli_import_leaves_transforms_and_verify_unloaded():
    _child("import sys, rqcm.cli\n"
           "assert not {'rqcm.transforms', 'rqcm.verify'} & set(sys.modules)")


# a command, its exit code and the modules of the two that it loads
_LOADS = {
    "spectrum": (["spectrum", "--nmax", "3"], 0, []),
    "eval": (["eval", "--samples", "3", "--rep", "momentum"], 0, []),
    "transform": (["transform", "--samples", "3"], 0, ["rqcm.transforms"]),
    "verify": (["verify", "--suite", "nr-limit"], 0, ["rqcm.transforms", "rqcm.verify"]),
    # the parser knows the suites without verify
    "verify_bogus_suite": (["verify", "--suite", "bogus"], 2, []),
}


@pytest.mark.parametrize("argv, code, loads", _LOADS.values(), ids=_LOADS.keys())
def test_each_command_loads_only_what_it_runs(argv, code, loads):
    out = _child("import sys\n"
                 "from rqcm.cli import main\n"
                 "try:\n"
                 "    code = main(sys.argv[1:])\n"
                 "except SystemExit as exc:\n"
                 "    code = exc.code\n"
                 "print(code, sorted({'rqcm.transforms', 'rqcm.verify'} & set(sys.modules)))\n",
                 *argv)
    assert out.splitlines()[-1] == f"{code} {loads}"


def test_the_cli_suites_are_the_verify_suites():
    assert list(cli._SUITES) == list(verify.SUITES)
    assert {s for suites in cli._VERIFY_OPTIONS.values() for s in suites} <= set(cli._SUITES)


def test_hbar_omega_helper(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--nmax", "0", "--m1", "1", "--m2", "1",
                           "--hbar-omega", "2.0")
    assert code == 0
    assert "Omega = m_r * omega" in err and "1" in err


# Every option of every subcommand as flag -> (dest, default). Flags and config
# keys share the dests, so a renamed dest or a changed default shows here.
_TABLE_FLAGS = {
    "--config": ("config", None), "--m1": ("m1", None), "--m2": ("m2", None),
    "--omega": ("omega", None), "--format": ("format", None), "--out": ("out", None),
    "--hbar-omega": ("hbar_omega", None),
}
_GRID_FLAGS = {
    "--l": ("l", None), "--grid-axis": ("grid_axis", None), "--grid-min": ("grid_min", None),
    "--grid-max": ("grid_max", None), "--samples": ("samples", None),
}
FROZEN_OPTIONS = {
    "spectrum": {**_TABLE_FLAGS, "--nmax": ("nmax", None)},
    "eval": {**_TABLE_FLAGS, **_GRID_FLAGS, "--v": ("v", None),
             "--rep": ("representation", None)},
    "transform": {**_TABLE_FLAGS, **_GRID_FLAGS, "--to": ("to", "momentum"),
                  "--order": ("order", None)},
    "verify": {"--suite": ("suite", "all"), "--config": ("config", None),
               "--seed": ("seed", None), "--trials": ("trials", None),
               "--points": ("points", None), "--max-n": ("max_n", None),
               "--order": ("order", None), "--sigma-perturb": ("sigma_perturb", None),
               "--bargmann-sign": ("bargmann_sign", None), "--report": ("report", None)},
}


def test_subcommand_options_are_frozen():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FROZEN_OPTIONS)
    for name, subparser in sub.choices.items():
        got = {flag: (action.dest, action.default) for action in subparser._actions
               for flag in action.option_strings if action.dest != "help"}
        assert got == FROZEN_OPTIONS[name], name


# test_hbar_omega_helper covers spectrum
@pytest.mark.parametrize("command", ["eval --samples 3", "transform --samples 3"])
def test_hbar_omega_note_on_eval_and_transform(capsys, command):
    code, _, err = run_cli(capsys, *command.split(), "--m1", "1", "--m2", "1",
                           "--hbar-omega", "2.0")
    assert code == 0
    assert err == "# nonrelativistic mapping: Omega = m_r * omega = 0.5 * 2 = 1\n"
