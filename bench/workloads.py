"""The benchmark's three workloads: seeded operation lists and their checks.

Each workload is closed-loop with a single caller: the next operation
starts only when the previous one has returned (in-process workloads) or
its process has exited (``cli-tables``). Inputs come only from the seed.

A pass returns records ``(label, seconds, payload)``; ``check`` turns a
payload into ``None`` (correct) or a reason. Checks run after the pass,
outside its timing, and every record is checked: a failure is counted,
never retried or re-drawn.
"""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import rqcm
from rqcm import oscillator, transforms, verify

# Tolerances of run_transform_suite: modulus, Bargmann monomials, integrals.
FOURIER_TOL = 1e-8
BARGMANN_TOL = 1e-9
INTEGRAL_TOL = 1e-10
# Eval tables against vectorised closed forms, relative to the table maximum.
EVAL_TOL = 1e-8
SPECTRUM_RTOL = 1e-12

# Input sets generated at set-up; a longer run cycles through them.
PREPARED_PASSES = 24
# Table sizes of cli-tables: three evals of about 2000 samples in all.
EVAL_SAMPLES = 667
TRANSFORM_SAMPLES = 1001
# A command normally takes well under a second; one that hangs is killed and failed.
COMMAND_TIMEOUT = 60


def _pass_rng(seed: int, k: int):
    return np.random.default_rng([seed, k])


def _random_levels(rng, n_max: int):
    """Quantum numbers with total n drawn uniformly from 0..n_max."""
    n = int(rng.integers(0, n_max + 1))
    l1 = int(rng.integers(0, n + 1))
    l2 = int(rng.integers(0, n - l1 + 1))
    return (l1, l2, n - l1 - l2)


def _worst(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0


# ---------------------------------------------------------------------------
# verify: run_all per pass, one record per suite report

class VerifyWorkload:
    """``run_all(seed=base+k)`` with default arguments, five suites per pass."""

    name = "verify"
    rule_orders = (32, 48, 64)
    min_passes = 3

    def __init__(self, seed: int):
        self.base = seed * 1000

    def setup(self):
        for order in self.rule_orders:
            transforms.gauss_hermite(order)

    def run_pass(self, k: int, tracer=None):
        times = {}
        originals = dict(verify.SUITES)

        def timed(name, runner):
            def call(**kwargs):
                t0 = perf_counter()
                try:
                    return runner(**kwargs)
                finally:
                    times[name] = perf_counter() - t0
            return call

        verify.SUITES.update({n: timed(n, r) for n, r in originals.items()})
        try:
            reports = verify.run_all(seed=self.base + k)
        except Exception as exc:  # counted as one failed operation
            return [("run_all", sum(times.values()), exc)]
        finally:
            verify.SUITES.update(originals)
        return [(name, times[name], rep) for name, rep in reports.items()]

    @staticmethod
    def check(label, payload):
        if isinstance(payload, Exception):
            return f"{label} raised {payload!r}"
        if not payload.passed:
            return f"suite {label} failed: max_rel_err {payload.max_rel_err:.3e}"
        return None

    @staticmethod
    def cases(records) -> int:
        return sum(len(p.cases) for _, _, p in records if not isinstance(p, Exception))


# ---------------------------------------------------------------------------
# transform-points: fixed seeded list of in-process transform calls

@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _fourier_op(label, state, targets, rule):
    def check(num):
        prof = oscillator.momentum_profile(state)
        if isinstance(targets, tuple):
            a, b, c = targets
            ana = prof(a[:, None, None], b[None, :, None], c[None, None, :])
        else:
            ana = prof(targets[:, 0], targets[:, 1], targets[:, 2])
        err = _worst(np.abs(num), np.abs(ana))
        return None if err <= FOURIER_TOL else f"{label}: modulus error {err:.3e}"
    return Op(label, lambda: rqcm.fourier_of_state(state, targets, rule), check)


def _bargmann_op(label, l, omega, alpha, rule):
    def check(got):
        want = alpha ** l / math.sqrt(math.factorial(l))
        err = _worst(got, want)
        return None if err <= BARGMANN_TOL else f"{label}: monomial error {err:.3e}"
    g = lambda xi: rqcm.phi_1d(l, omega, xi)
    return Op(label, lambda: rqcm.bargmann_transform(g, alpha, omega, rule), check)


def _integral_op(label, fn_name, args, want, rule):
    def check(vals):
        err = _worst(vals, want)
        return None if err <= INTEGRAL_TOL else f"{label}: integral error {err:.3e}"
    return Op(label, lambda: [getattr(rqcm, fn_name)(*a, rule) for a in args], check)


class TransformPointsWorkload:
    """Fifteen transform calls per pass, with the same sizes in every pass.

    Six order-32 point lists (M spread over 600-2000), two order-64 point
    lists (M of 250 and 350), one 41^3 order-64 grid, three Bargmann arrays of
    1000 complex alpha (l in 0-2, 3-5, 6-8), and three batches of twelve
    normalisation or overlap integrals with n <= 12. Fifteen operations put
    the 50th and 90th percentiles inside a stratum, not on a boundary; the
    smallest point list costs about twice the grid, so the two do not
    interleave at the 50th percentile.
    """

    name = "transform-points"
    rule_orders = (32, 48, 64)
    # 8 passes give 120 operations, 12 beyond the 90th percentile.
    min_passes = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = []

    def setup(self):
        rules = {order: transforms.gauss_hermite(order) for order in self.rule_orders}
        self.inputs = [self._ops(k, rules) for k in range(PREPARED_PASSES)]

    def _ops(self, k, rules):
        rng = _pass_rng(self.seed, k)
        omega = float(rng.uniform(0.8, 1.4))
        m1, m2 = 1.0, 1.3
        state = lambda ls: rqcm.oscillator_state(ls, omega, m1, m2)
        ops = []
        for order, lo, hi, count in ((32, 600, 2000, 6), (64, 200, 400, 2)):
            reach = 0.95 * transforms.trust_momentum(rules[order], omega)
            for i in range(count):
                m = int(lo + (hi - lo) * (i + 0.5) / count)
                pts = rng.uniform(-reach, reach, (m, 3))
                ops.append(_fourier_op(f"fourier_points_o{order}_m{m}",
                                       state(_random_levels(rng, 8)), pts, rules[order]))
        reach = 0.95 * transforms.trust_momentum(rules[64], omega)
        axis = np.linspace(-reach, reach, 41)
        ops.append(_fourier_op("fourier_grid41_o64", state(_random_levels(rng, 8)),
                               (axis, axis, axis), rules[64]))
        for lo in (0, 3, 6):
            l = int(rng.integers(lo, lo + 3))
            alpha = rng.uniform(-2.0, 2.0, 1000) + 1j * rng.uniform(-2.0, 2.0, 1000)
            ops.append(_bargmann_op(f"bargmann_l{l}", l, omega, alpha, rules[48]))
        norms = [(state(_random_levels(rng, 12)),) for _ in range(12)]
        ops.append(_integral_op("normalization", "normalization_integral",
                                norms, 1.0, rules[32]))
        distinct, same = [], []
        while len(distinct) < 12:
            a, b = _random_levels(rng, 12), _random_levels(rng, 12)
            if a != b:
                distinct.append((state(a), state(b)))
        for _ in range(12):
            s = state(_random_levels(rng, 12))
            same.append((s, s))
        ops.append(_integral_op("overlap_distinct", "overlap_integral",
                                distinct, 0.0, rules[32]))
        ops.append(_integral_op("overlap_same", "overlap_integral",
                                same, 1.0, rules[32]))
        return ops

    def run_pass(self, k: int, tracer=None):
        records = []
        with warnings.catch_warnings():
            # an under-resolved transform is a failed operation, not a note
            warnings.simplefilter("error", transforms.InsufficientOrderWarning)
            for op in self.inputs[k % len(self.inputs)]:
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:
                    out = exc
                records.append((op.label, perf_counter() - t0, (op, out)))
        return records

    @staticmethod
    def check(label, payload):
        op, out = payload
        if isinstance(out, Exception):
            return f"{label} raised {out!r}"
        return op.check(out)


# ---------------------------------------------------------------------------
# cli-tables: one rqcm child process at a time

@dataclass
class Command:
    label: str
    argv: list
    spec: dict


def _num(x) -> str:
    """A float as a command-line argument: positional digits that read back exactly.

    ``repr`` writes values in (-1e-4, 0) in exponent notation, as in
    ``-4.5e-05``, and ``rqcm``'s argparse parser takes such a word for an
    option and exits 2. A user types ``-0.000045``; so does this benchmark.
    """
    return np.format_float_positional(float(x), unique=True, trim="-")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


class CliTablesWorkload:
    """Seven ``rqcm`` commands per pass, each in a fresh interpreter.

    Three ``eval`` tables (position, momentum, Bargmann) of 667 samples with
    one axis at l = 40-64 (the three l strata rotate over the
    representations from pass to pass) and boosts up to 0.99c, ``transform
    --to momentum --order 256``, ``transform --to bargmann --order 64``,
    ``spectrum --nmax 64`` and ``verify --suite invariance``.
    """

    name = "cli-tables"
    # 16 passes give 112 commands, so at least ten lie beyond the 90th percentile.
    min_passes = 16

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.inputs = []
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = [self._commands(k) for k in range(PREPARED_PASSES)]

    def setup_sample(self) -> float:
        """Wall time of a bare interpreter importing rqcm.cli, which every command pays."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import rqcm.cli"], env=self.env,
                       check=True, cwd=self.root)
        return perf_counter() - t0

    def _commands(self, k):
        rng = _pass_rng(self.seed, k)
        m1, m2 = (float(x) for x in rng.uniform(0.5, 3.0, 2))
        omega = float(rng.uniform(0.5, 2.0))
        phys = ["--m1", _num(m1), "--m2", _num(m2), "--omega", _num(omega)]
        cmds = []
        strata = np.roll([40, 48, 56], k)
        for i, rep in enumerate(("position", "momentum", "bargmann")):
            axis = int(rng.integers(1, 4))
            ls = [0, 0, 0] if rep == "bargmann" else [int(x) for x in 2 * rng.integers(0, 3, 3)]
            ls[axis - 1] = int(rng.integers(strata[i], strata[i] + 9))
            direction = rng.normal(size=3)
            v = direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.99)
            samples = EVAL_SAMPLES
            gmax = float(rng.uniform(3.0, 6.0))
            argv = ["eval", *phys, "--l", *map(str, ls), "--v", *map(_num, v),
                    "--rep", rep, "--grid-axis", str(axis), "--grid-min", _num(-gmax),
                    "--grid-max", _num(gmax), "--samples", str(samples)]
            cmds.append(Command(f"eval_{rep}", argv, dict(
                rep=rep, ls=ls, axis=axis, omega=omega, samples=samples, gmax=gmax)))
        for to, order, lmax in (("momentum", 256, 64), ("bargmann", 64, 48)):
            axis = int(rng.integers(1, 4))
            ls = [int(x) for x in rng.integers(0, 9, 3)]
            ls[axis - 1] = int(rng.integers(0, lmax + 1))
            samples = TRANSFORM_SAMPLES
            gmax = float(rng.uniform(3.0, 4.0))
            argv = ["transform", *phys, "--l", *map(str, ls), "--to", to, "--order", str(order),
                    "--grid-axis", str(axis), "--grid-min", _num(-gmax), "--grid-max", _num(gmax),
                    "--samples", str(samples)]
            cmds.append(Command(f"transform_{to}", argv, dict(
                to=to, l=ls[axis - 1], omega=omega, samples=samples, gmax=gmax)))
        cmds.append(Command("spectrum", ["spectrum", *phys, "--nmax", "64"],
                            dict(m1=m1, m2=m2, omega=omega, nmax=64)))
        cmds.append(Command("verify_invariance",
                            ["verify", "--suite", "invariance", "--seed",
                             str(self.seed * 1000 + k)], {}))
        return cmds

    def run_pass(self, k: int, tracer=None):
        records = []
        for i, cmd in enumerate(self.inputs[k % len(self.inputs)]):
            out = self.out_dir / f"{i}_{cmd.label}.out"
            spans = self.out_dir / f"{i}_{cmd.label}.spans.json"
            out.unlink(missing_ok=True)
            spans.unlink(missing_ok=True)
            flag = "--report" if cmd.argv[0] == "verify" else "--out"
            argv = [*cmd.argv, flag, str(out)]
            if tracer is None:
                full = [sys.executable, "-m", "rqcm.cli", *argv]
            else:
                shim = Path(__file__).with_name("cli_shim.py")
                full = [sys.executable, str(shim), str(spans), repr(perf_counter()), *argv]
            t0 = perf_counter()
            try:
                proc = subprocess.run(full, env=self.env, cwd=self.root, timeout=COMMAND_TIMEOUT,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, f"killed after {COMMAND_TIMEOUT} s"
            dt = perf_counter() - t0
            if tracer is not None and spans.exists():
                tracer.merge(json.loads(spans.read_text()))
            records.append((cmd.label, dt, (cmd, code, stderr, out)))
        return records

    @staticmethod
    def check(label, payload):
        cmd, code, stderr, out = payload
        if code != 0:
            return f"{label} exited {code}: {stderr.strip()[-300:]}"
        if not out.exists():
            return f"{label} wrote no output"
        try:
            return _CLI_CHECKS[cmd.argv[0]](cmd, out)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            return f"{label}: unreadable output ({exc!r})"

    @staticmethod
    def cases(records) -> int:
        for label, _, (cmd, code, _, out) in records:
            if label == "verify_invariance" and code == 0 and out.exists():
                return len(json.loads(out.read_text())["invariance"]["cases"])
        return 0


def _check_eval(cmd, out):
    s = cmd.spec
    rows = _read_csv(out)
    if len(rows) != s["samples"]:
        return f"{cmd.label}: {len(rows)} rows, expected {s['samples']}"
    coord = {"position": "xi", "momentum": "pi", "bargmann": "alpha"}[s["rep"]]
    ts = _column(rows, coord)
    got = _column(rows, "abs2_psi")
    cols = np.stack([_column(rows, c) for c in ("c1", "c2", "c3", "c4", "re_psi", "im_psi")])
    if not (np.all(np.isfinite(cols)) and np.all(np.isfinite(got))):
        return f"{cmd.label}: non-finite values"
    if _worst(ts, np.linspace(-s["gmax"], s["gmax"], s["samples"])) > 1e-12 * s["gmax"]:
        return f"{cmd.label}: grid differs from the requested one"
    om, a = s["omega"], s["axis"] - 1
    if s["rep"] == "bargmann":
        want = ts ** s["ls"][a] / math.sqrt(math.factorial(s["ls"][a]))
    else:
        factor = oscillator.phi_1d if s["rep"] == "position" else oscillator.phi_1d_momentum
        want = factor(s["ls"][a], om, ts)
        for b in range(3):
            if b != a:
                want = want * factor(s["ls"][b], om, 0.0)
    want = want * want
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = _worst(got, want) / scale
    return None if err <= EVAL_TOL else f"{cmd.label}: abs2_psi relative error {err:.3e}"


def _check_transform(cmd, out):
    s = cmd.spec
    rows = _read_csv(out)
    if len(rows) != s["samples"]:
        return f"{cmd.label}: {len(rows)} rows, expected {s['samples']}"
    got, closed = _column(rows, "abs"), _column(rows, "abs_closed_form")
    ts = _column(rows, "pi" if s["to"] == "momentum" else "alpha")
    if not all(np.all(np.isfinite(_column(rows, c)))
               for c in ("re", "im", "abs", "abs_closed_form")):
        return f"{cmd.label}: non-finite values"
    if s["to"] == "momentum":
        want, tol = np.abs(oscillator.phi_1d_momentum(s["l"], s["omega"], ts)), FOURIER_TOL
    else:
        want, tol = np.abs(ts ** s["l"]) / math.sqrt(math.factorial(s["l"])), BARGMANN_TOL
    scale = max(1.0, float(np.max(want)))
    if _worst(closed, want) > 1e-12 * scale:
        return f"{cmd.label}: abs_closed_form column differs from the closed form"
    err = _worst(got, closed) / scale
    return None if err <= tol else f"{cmd.label}: abs error {err:.3e}"


def _check_spectrum(cmd, out):
    s = cmd.spec
    rows = _read_csv(out)
    if len(rows) != s["nmax"] + 1:
        return f"{cmd.label}: {len(rows)} rows, expected {s['nmax'] + 1}"
    n = np.arange(s["nmax"] + 1)
    if [int(r["n"]) for r in rows] != list(n) \
            or [int(r["degeneracy"]) for r in rows] != list((n + 1) * (n + 2) // 2):
        return f"{cmd.label}: level or degeneracy column wrong"
    sigma, m0 = _column(rows, "sigma"), _column(rows, "M0")
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(m0))):
        return f"{cmd.label}: non-finite values"
    want_sigma = s["omega"] * (1.5 + n)
    a = s["m1"] ** 2 + s["m2"] ** 2 + 4.0 * want_sigma
    want_m0 = np.sqrt(a + np.sqrt(a * a - (s["m1"] ** 2 - s["m2"] ** 2) ** 2))
    err = max(_worst(sigma / want_sigma, 1.0), _worst(m0 / want_m0, 1.0))
    return None if err <= SPECTRUM_RTOL else f"{cmd.label}: relative error {err:.3e}"


def _check_verify(cmd, out):
    report = json.loads(out.read_text())["invariance"]
    return None if report["pass"] else f"{cmd.label}: invariance suite failed"


_CLI_CHECKS = {"eval": _check_eval, "transform": _check_transform,
               "spectrum": _check_spectrum, "verify": _check_verify}
