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

from . import transforms, verify
from .minkowski import FourVector, general_boost, reduced_mass, rest_mass
from .oscillator import (degeneracy, nr_spring_constant, oscillator_state,
                         phi_1d, phi_1d_momentum, psi_bargmann, psi_momentum,
                         psi_position, sigma_n)

_CONFIG_KEYS = ("m1", "m2", "omega", "l", "v", "grid", "representation",
                "order", "seed", "format")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path):
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


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _setting(args, cfg, key, default):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _format_setting(args, cfg):
    fmt = _setting(args, cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported format {fmt!r}")
    return fmt


def _grid_setting(args, cfg):
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    grid = dict(grid)
    for key, flag in (("axis", "grid_axis"), ("min", "grid_min"),
                      ("max", "grid_max"), ("samples", "samples")):
        val = getattr(args, flag, None)
        if val is not None:
            grid[key] = val
    grid.setdefault("axis", 1)
    grid.setdefault("min", -4.0)
    grid.setdefault("max", 4.0)
    grid.setdefault("samples", 41)
    if not (_is_int(grid["axis"]) and _is_int(grid["samples"])):
        raise ValueError("grid axis and samples must be integers")
    if not all(_is_real(grid[k]) and math.isfinite(grid[k]) for k in ("min", "max")):
        raise ValueError("grid min and max must be finite numbers")
    if grid["samples"] < 2:
        raise ValueError("grid samples must be >= 2")
    if grid["axis"] not in (1, 2, 3):
        raise ValueError("grid axis must be 1, 2 or 3")
    return grid


def _hbar_omega_note(args, m1, m2):
    w = getattr(args, "hbar_omega", None)
    if w is not None:
        om = nr_spring_constant(m1, m2, w)
        print(f"# nonrelativistic mapping: Omega = m_r * omega = "
              f"{reduced_mass(m1, m2):.17g} * {w:.17g} = {om:.17g}", file=sys.stderr)


def _common_physics(args, cfg):
    m1 = float(_setting(args, cfg, "m1", 1.0))
    m2 = float(_setting(args, cfg, "m2", 1.0))
    omega = float(_setting(args, cfg, "omega", 1.0))
    if not (0.0 < m1 < math.inf and 0.0 < m2 < math.inf and 0.0 < omega < math.inf):
        raise ValueError("masses and omega must be positive and finite")
    return m1, m2, omega


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    m1, m2, omega = _common_physics(args, cfg)
    _hbar_omega_note(args, m1, m2)
    nmax = args.nmax if args.nmax is not None else 6
    rows = []
    for n in range(nmax + 1):
        s = sigma_n(omega, n)
        rows.append({"n": n, "degeneracy": degeneracy(n), "sigma": s,
                     "M0": rest_mass(m1, m2, s)})
    fmt = _format_setting(args, cfg)
    _emit(rows, ["n", "degeneracy", "sigma", "M0"], fmt, args.out)
    return 0


def _parse_l(args, cfg):
    raw = _setting(args, cfg, "l", [0, 0, 0])
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3
            and all(_is_int(v) for v in raw)):
        raise ValueError("l must be three integers")
    return tuple(raw)


def _parse_v(args, cfg):
    raw = _setting(args, cfg, "v", [0.0, 0.0, 0.0])
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3
            and all(_is_real(c) for c in raw)):
        raise ValueError("v must be three numbers")
    v = [float(c) for c in raw]
    if not sum(c * c for c in v) < 1.0:
        raise ValueError("v must be finite with |v| below 1")
    return v


def _sample_points(grid, velocity):
    """4-space sample points whose constraint coordinate runs along one axis.

    Points are built in the rest frame on the requested axis and carried to
    the requested frame with the inverse boost, so the constraint
    coordinates are the grid values by construction.
    """
    axis = grid["axis"]
    ts = np.linspace(grid["min"], grid["max"], grid["samples"])
    pts = []
    neg_v = [-c for c in velocity]
    for t in ts:
        comps = [0.0, 0.0, 0.0, 0.0]
        comps[axis - 1] = float(t)
        rest_point = FourVector.from_components(comps)
        pts.append(general_boost(rest_point, neg_v))
    return ts, pts


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    m1, m2, omega = _common_physics(args, cfg)
    _hbar_omega_note(args, m1, m2)
    ls = _parse_l(args, cfg)
    velocity = _parse_v(args, cfg)
    rep = _setting(args, cfg, "representation", "position")
    if rep not in ("position", "momentum", "bargmann"):
        raise ValueError(f"unsupported representation {rep!r}")
    grid = _grid_setting(args, cfg)
    state = oscillator_state(ls, omega, m1, m2, velocity)
    ts, pts = _sample_points(grid, velocity)
    coord = {"position": "xi", "momentum": "pi", "bargmann": "alpha"}[rep]
    rows = []
    for t, pt in zip(ts, pts):
        if rep == "position":
            val = psi_position(state, pt)
        elif rep == "momentum":
            val = psi_momentum(state, pt)
        else:
            val = psi_bargmann(state, pt)
        rows.append({coord: float(t),
                     "c1": pt.c1, "c2": pt.c2, "c3": pt.c3, "c4": pt.c4,
                     "re_psi": val.real, "im_psi": val.imag,
                     "abs2_psi": abs(val) ** 2})
    fmt = _format_setting(args, cfg)
    _emit(rows, [coord, "c1", "c2", "c3", "c4", "re_psi", "im_psi", "abs2_psi"],
          fmt, args.out)
    return 0


def cmd_transform(args) -> int:
    cfg = _load_config(args.config)
    m1, m2, omega = _common_physics(args, cfg)
    ls = _parse_l(args, cfg)
    to = args.to
    order = int(_setting(args, cfg, "order", 32))
    rule = transforms.gauss_hermite(order)
    state = oscillator_state(ls, omega, m1, m2)
    grid = _grid_setting(args, cfg)
    axis = grid["axis"]
    ts = np.linspace(grid["min"], grid["max"], grid["samples"])
    rows = []
    if to == "momentum":
        g = lambda xi, l=ls[axis - 1]: phi_1d(l, omega, xi)
        vals = transforms.fourier_forward1d(g, ts, rule, omega)
        ana = phi_1d_momentum(ls[axis - 1], omega, ts)
        for t, v, a in zip(ts, np.atleast_1d(vals), np.atleast_1d(ana)):
            rows.append({"pi": float(t), "re": v.real, "im": v.imag,
                         "abs": abs(v), "abs_closed_form": abs(a)})
        cols = ["pi", "re", "im", "abs", "abs_closed_form"]
    elif to == "bargmann":
        g = lambda xi, l=ls[axis - 1]: phi_1d(l, omega, xi)
        vals = transforms.bargmann_transform(g, ts.astype(complex), omega, rule)
        l = ls[axis - 1]
        ana = ts.astype(complex) ** l / math.sqrt(math.factorial(l))
        for t, v, a in zip(ts, np.atleast_1d(vals), np.atleast_1d(ana)):
            rows.append({"alpha": float(t), "re": v.real, "im": v.imag,
                         "abs": abs(v), "abs_closed_form": abs(a)})
        cols = ["alpha", "re", "im", "abs", "abs_closed_form"]
    else:
        raise ValueError(f"unsupported transform target {to!r}")
    fmt = _format_setting(args, cfg)
    _emit(rows, cols, fmt, args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    seed = int(_setting(args, cfg, "seed", 0))
    order = _setting(args, cfg, "order", None)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = {}
    for name in names:
        kwargs = {"seed": seed}
        if name == "invariance" and args.trials is not None:
            kwargs["trials"] = args.trials
        if name == "pde":
            if args.sigma_perturb:
                kwargs["sigma_perturb"] = args.sigma_perturb
            if args.points is not None:
                kwargs["points_per_state"] = args.points
        if name == "ladder" and args.points is not None:
            kwargs["points"] = args.points
        if name == "transforms":
            if order is not None:
                kwargs["order"] = int(order)
            if args.bargmann_sign is not None:
                kwargs["bargmann_sign"] = args.bargmann_sign
            if args.max_n is not None:
                kwargs["max_n"] = args.max_n
        reports[name] = verify.SUITES[name](**kwargs)
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    ok = all(rep.passed for rep in reports.values())
    for name, rep in sorted(reports.items()):
        print(f"# {name}: {'pass' if rep.passed else 'FAIL'} "
              f"(max_rel_err {rep.max_rel_err:.3e}, tol {rep.tolerance:.0e})",
              file=sys.stderr)
    return 0 if ok else 1


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--m1", type=float)
    parser.add_argument("--m2", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--format", choices=("csv", "json"), dest="format")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--hbar-omega", type=float, dest="hbar_omega",
                        help="print the spring constant for this Schroedinger frequency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqcm",
        description="Relativistic oscillator in constraint-space coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="level table: n, degeneracy, sigma_n, M0")
    _add_common(sp)
    sp.add_argument("--nmax", type=int)
    sp.set_defaults(func=cmd_spectrum)

    ev = sub.add_parser("eval", help="sample a wave function along a constraint axis")
    _add_common(ev)
    ev.add_argument("--l", type=int, nargs=3, metavar=("L1", "L2", "L3"))
    ev.add_argument("--v", type=float, nargs=3, metavar=("VX", "VY", "VZ"))
    ev.add_argument("--rep", dest="representation",
                    choices=("position", "momentum", "bargmann"))
    ev.add_argument("--grid-axis", type=int, dest="grid_axis")
    ev.add_argument("--grid-min", type=float, dest="grid_min")
    ev.add_argument("--grid-max", type=float, dest="grid_max")
    ev.add_argument("--samples", type=int, dest="samples")
    ev.set_defaults(func=cmd_eval)

    tr = sub.add_parser("transform", help="numeric transform of one axis profile")
    _add_common(tr)
    tr.add_argument("--l", type=int, nargs=3, metavar=("L1", "L2", "L3"))
    tr.add_argument("--to", choices=("momentum", "bargmann"), default="momentum")
    tr.add_argument("--order", type=int)
    tr.add_argument("--grid-axis", type=int, dest="grid_axis")
    tr.add_argument("--grid-min", type=float, dest="grid_min")
    tr.add_argument("--grid-max", type=float, dest="grid_max")
    tr.add_argument("--samples", type=int, dest="samples")
    tr.set_defaults(func=cmd_transform)

    vf = sub.add_parser("verify", help="run verification suites, exit 1 on failure")
    vf.add_argument("--suite", default="all",
                    choices=tuple(verify.SUITES) + ("all",))
    vf.add_argument("--config")
    vf.add_argument("--seed", type=int)
    vf.add_argument("--trials", type=int)
    vf.add_argument("--points", type=int)
    vf.add_argument("--max-n", type=int, dest="max_n",
                    help="highest level n of the transforms suite (other suites ignore it)")
    vf.add_argument("--order", type=int)
    vf.add_argument("--sigma-perturb", type=float, dest="sigma_perturb", default=0.0)
    vf.add_argument("--bargmann-sign", type=int, dest="bargmann_sign",
                    choices=(-1, 1))
    vf.add_argument("--report", help="write the JSON report to this path")
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
