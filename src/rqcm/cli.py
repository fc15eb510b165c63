"""Command-line front end: spectrum tables, wave-function evaluation,
transforms and verification suites. All numbers are produced by the
library; this layer only parses options and formats rows.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .minkowski import general_boost, reduced_mass, rest_mass
from .oscillator import (QuantumNumbers, degeneracy, nr_spring_constant, oscillator_state,
                         phi_1d, phi_1d_bargmann, phi_1d_momentum, psi_bargmann,
                         psi_momentum, psi_position, sigma_n)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # an integer beyond the float range would raise OverflowError in float()
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _three(test):
    return lambda value: (isinstance(value, (list, tuple)) and len(value) == 3
                          and all(test(c) for c in value))


def _one_of(*choices):
    return (lambda value: value in choices), " or ".join(map(repr, choices))


_POSITIVE = (lambda x: _is_real(x) and 0.0 < x < math.inf, "a positive finite number")
_FINITE = (lambda x: _is_real(x) and math.isfinite(x), "a finite number")

# setting -> (default, test, what the test asks for). A setting comes from its
# flag, else from the config file, else from its default, and flag and config
# values pass the same test. The config file holds the grid settings in its
# "grid" object, under the keys of _GRID_KEYS.
_SETTINGS = {
    "m1": (1.0, *_POSITIVE),
    "m2": (1.0, *_POSITIVE),
    "omega": (1.0, *_POSITIVE),
    "l": ((0, 0, 0), _three(_is_int), "three integers"),
    "v": ((0.0, 0.0, 0.0), _three(_is_real), "three numbers"),  # the boost checks |v| < 1
    "representation": ("position", *_one_of("position", "momentum", "bargmann")),
    "grid_axis": (1, lambda a: _is_int(a) and 1 <= a <= 3, "1, 2 or 3"),
    "grid_min": (-4.0, *_FINITE),
    "grid_max": (4.0, *_FINITE),
    "samples": (41, lambda n: _is_int(n) and n >= 2, "an integer >= 2"),
    "order": (32, _is_int, "an integer"),
    "seed": (0, _is_int, "an integer"),
    "format": ("csv", *_one_of("csv", "json")),
}
_GRID_KEYS = {"axis": "grid_axis", "min": "grid_min", "max": "grid_max", "samples": "samples"}
_CONFIG_KEYS = ("grid", *(key for key in _SETTINGS if key not in _GRID_KEYS.values()))

# the names of verify.SUITES, in its order, so that building the parser loads no verify
_SUITES = ("invariance", "pde", "ladder", "nr-limit", "transforms")

# each `verify` option and the suites that take it; a suite gets it when it is set
_VERIFY_OPTIONS = {
    "trials": ("invariance",),
    "points": ("pde", "ladder"),
    "sigma_perturb": ("pde",),
    "max_n": ("transforms",),
    "order": ("transforms",),
    "bargmann_sign": ("transforms",),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path):
    """Write the table, or raise ValueError before writing anything if it holds a NaN or inf."""
    for row in rows:
        if bad := [c for c in columns if isinstance(row[c], float) and not math.isfinite(row[c])]:
            value = float(row[bad[0]])  # a numpy scalar would print as np.float64(nan)
            raise ValueError(f"the table holds the non-finite value {bad[0]} = {value}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps([{c: row[c] for c in columns} for row in rows], indent=2)
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path) -> dict:
    """The config file's settings by name, its grid object flattened; {} for no file."""
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    grid = cfg.pop("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    unknown = [key for key in cfg if key not in _CONFIG_KEYS]
    unknown += [f"grid.{key}" for key in grid if key not in _GRID_KEYS]
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg | {_GRID_KEYS[key]: value for key, value in grid.items()}


def _get(args, cfg, key):
    """A setting from its flag, else the config, else its default, once it passes its test."""
    default, test, wants = _SETTINGS[key]
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    if not test(value):
        raise ValueError(f"{key} must be {wants}, got {value!r}")
    return value


def _physics(args, cfg):
    """m1, m2 and omega as floats; --hbar-omega also prints the spring constant it maps to."""
    m1, m2, omega = (float(_get(args, cfg, key)) for key in ("m1", "m2", "omega"))
    if (w := args.hbar_omega) is not None:
        om = nr_spring_constant(m1, m2, w)
        print(f"# nonrelativistic mapping: Omega = m_r * omega = "
              f"{reduced_mass(m1, m2):.17g} * {w:.17g} = {om:.17g}", file=sys.stderr)
    return m1, m2, omega


def _grid(args, cfg):
    """The grid axis (1, 2 or 3) and the coordinate values sampled along it: np.linspace
    of the halved bounds, doubled, so grid_max - grid_min cannot overflow. That has
    np.linspace's bits except for bounds near the subnormal range."""
    ts = 2 * np.linspace(_get(args, cfg, "grid_min") / 2, _get(args, cfg, "grid_max") / 2,
                         _get(args, cfg, "samples"))
    return _get(args, cfg, "grid_axis"), ts


def cmd_spectrum(args, cfg) -> int:
    if (nmax := 6 if args.nmax is None else args.nmax) < 0:
        raise ValueError(f"nmax must be an integer >= 0, got {nmax!r}")
    m1, m2, omega = _physics(args, cfg)
    rows = []
    for n in range(nmax + 1):
        s = sigma_n(omega, n)
        rows.append({"n": n, "degeneracy": degeneracy(n), "sigma": s,
                     "M0": rest_mass(m1, m2, s)})
    _emit(rows, ["n", "degeneracy", "sigma", "M0"], _get(args, cfg, "format"), args.out)
    return 0


def _sample_points(axis, ts, velocity):
    """4-space sample points whose constraint coordinate runs along one axis.

    Points are built in the rest frame on the requested axis and carried to
    the requested frame with the inverse boost, so the constraint
    coordinates are the grid values by construction.
    """
    rest = np.zeros((ts.size, 4))
    rest[:, axis - 1] = ts
    return general_boost(rest, [-c for c in velocity])


def _abs2(z: complex) -> float:
    """abs(z) ** 2, or inf where that overflows, for _emit to refuse."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def cmd_eval(args, cfg) -> int:
    m1, m2, omega = _physics(args, cfg)
    velocity = [float(c) for c in _get(args, cfg, "v")]
    coord, psi = {"position": ("xi", psi_position), "momentum": ("pi", psi_momentum),
                  "bargmann": ("alpha", psi_bargmann)}[_get(args, cfg, "representation")]
    state = oscillator_state(_get(args, cfg, "l"), omega, m1, m2, velocity)
    axis, ts = _grid(args, cfg)
    pts = _sample_points(axis, ts, velocity)
    rows = [{coord: t, "c1": c1, "c2": c2, "c3": c3, "c4": c4,
             "re_psi": val.real, "im_psi": val.imag, "abs2_psi": _abs2(val)}
            for t, (c1, c2, c3, c4), val in zip(ts.tolist(), pts.tolist(),
                                                psi(state, pts).tolist())]
    _emit(rows, [coord, "c1", "c2", "c3", "c4", "re_psi", "im_psi", "abs2_psi"],
          _get(args, cfg, "format"), args.out)
    return 0


def cmd_transform(args, cfg) -> int:
    from . import transforms
    _, _, omega = _physics(args, cfg)
    ls = QuantumNumbers(*_get(args, cfg, "l")).as_tuple()
    # target -> (numeric transform of one factor, its closed form, coordinate column)
    transform, closed_form, coord = {
        "momentum": (transforms.fourier_forward1d, phi_1d_momentum, "pi"),
        "bargmann": (lambda g, t, rule, om: transforms.bargmann_transform(g, t, om, rule),
                     phi_1d_bargmann, "alpha"),
    }[args.to]
    rule = transforms.gauss_hermite(_get(args, cfg, "order"))
    axis, ts = _grid(args, cfg)
    l = ls[axis - 1]
    if why := transforms.unresolved([l], rule):
        raise ValueError(f"{why}; raise --order above {l}")
    vals = transform(lambda xi: phi_1d(l, omega, xi), ts, rule, omega)
    ana = closed_form(l, omega, ts)
    rows = [{coord: float(t), "re": v.real, "im": v.imag, "abs": abs(v),
             "abs_closed_form": abs(a)}
            for t, v, a in zip(ts, np.atleast_1d(vals), np.atleast_1d(ana))]
    _emit(rows, [coord, "re", "im", "abs", "abs_closed_form"], _get(args, cfg, "format"),
          args.out)
    return 0


def cmd_verify(args, cfg) -> int:
    from . import verify
    seed = _get(args, cfg, "seed")
    options = {key: getattr(args, key) for key in _VERIFY_OPTIONS}
    options["order"] = _get(args, cfg, "order")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    kwargs = {name: {key: value for key, value in options.items()
                     if value is not None and name in _VERIFY_OPTIONS[key]} for name in names}
    for name in names:  # every option, before the first suite runs
        verify._check_options(seed=seed, **kwargs[name])
    reports = {name: verify.SUITES[name](seed=seed, **kwargs[name]) for name in names}
    if args.report:
        with open(args.report, "w") as fh:
            fh.writelines(verify._reports_json(reports))
    else:
        sys.stdout.writelines(verify._reports_json(reports))
    ok = all(rep.passed for rep in reports.values())
    for name, rep in sorted(reports.items()):
        print(f"# {name}: {'pass' if rep.passed else 'FAIL'} "
              f"(max_rel_err {rep.max_rel_err:.3e}, tol {rep.tolerance:.0e})",
              file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqcm",
        description="Relativistic oscillator in constraint-space coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(group, flag, key=None, **kwargs):
        """A flag of a _SETTINGS entry; its help says what the entry accepts."""
        key = key or flag[2:].replace("-", "_")
        default, _, wants = _SETTINGS[key]
        group.add_argument(flag, dest=key, help=f"{wants}; default {default}", **kwargs)

    # the flags that several commands share, declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file; flags override it")
    table = argparse.ArgumentParser(add_help=False, parents=[config])
    for key in ("m1", "m2", "omega"):
        setting(table, f"--{key}", type=float)
    setting(table, "--format")
    table.add_argument("--out", help="write output here instead of stdout")
    table.add_argument("--hbar-omega", type=float,
                       help="print the spring constant for this Schroedinger frequency")
    grid = argparse.ArgumentParser(add_help=False)
    setting(grid, "--l", type=int, nargs=3, metavar=("L1", "L2", "L3"))
    setting(grid, "--grid-axis", type=int)
    setting(grid, "--grid-min", type=float)
    setting(grid, "--grid-max", type=float)
    setting(grid, "--samples", type=int)

    sp = sub.add_parser("spectrum", parents=[table],
                        help="level table: n, degeneracy, sigma_n, M0")
    sp.add_argument("--nmax", type=int)
    sp.set_defaults(func=cmd_spectrum)

    ev = sub.add_parser("eval", parents=[table, grid],
                        help="sample a wave function along a constraint axis")
    setting(ev, "--v", type=float, nargs=3, metavar=("VX", "VY", "VZ"))
    setting(ev, "--rep", "representation")
    ev.set_defaults(func=cmd_eval)

    tr = sub.add_parser("transform", parents=[table, grid],
                        help="numeric transform of one axis profile")
    tr.add_argument("--to", choices=("momentum", "bargmann"), default="momentum")
    setting(tr, "--order", type=int)
    tr.set_defaults(func=cmd_transform)

    vf = sub.add_parser("verify", parents=[config],
                        help="run verification suites, exit 1 on failure")
    vf.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    setting(vf, "--seed", type=int)
    vf.add_argument("--trials", type=int)
    vf.add_argument("--points", type=int)
    vf.add_argument("--max-n", type=int,
                    help="highest level n of the transforms suite (other suites ignore it)")
    setting(vf, "--order", type=int)
    vf.add_argument("--sigma-perturb", type=float)
    vf.add_argument("--bargmann-sign", type=int, choices=(-1, 1))
    vf.add_argument("--report", help="write the JSON report to this path")
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
