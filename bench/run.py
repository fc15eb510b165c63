"""rqcm benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``verify``, ``transform-points`` and
``cli-tables``. With ``--trace 0`` the run makes passes until ``--seconds``
have passed and the workload's minimum number of passes is done, and the
last line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` it alternates untraced passes with passes traced through
every layer (tracing.py) and reports the per-layer metrics. ``--seconds 0``
makes a smoke run of one pass, or one pair. Lines before the last one carry
the environment, a host reference timing before each pass, and any failed
operation. Design notes and the metric definitions are in DESIGN.md.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 2.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the caller is single-threaded and the host has two shared
# cores, where a second BLAS thread adds noise and no speed. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify", "transform-points", "cli-tables")
SETUP_SAMPLES = 5
REF_SAMPLES = 5

# Functions whose per-call time is compared with the ROADMAP baseline table.
PER_CALL = ("oscillator.psi_position", "oscillator.psi_momentum", "constraint.xi_from_x",
            "oscillator.oscillator_state", "transforms.fourier_forward",
            "verify.finite_difference_gradient4", "transforms.normalization_integral",
            "transforms.bargmann_transform")


def parse_args(argv=None):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=non_negative)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up only and print the set-up time (used for setup_s)")
    return parser.parse_args(argv)


def host_ref_ms() -> float:
    """A fixed pure-Python plus numpy loop; its drift shows host speed drift."""
    import numpy as np
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    a = np.arange(50000.0)
    for _ in range(20):
        acc += float(np.sum(np.sqrt(a) * a))
    return (perf_counter() - t0) * 1e3


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": sha, "seed": seed}


def make_workload(name: str, seed: int):
    import workloads
    if name == "verify":
        return workloads.VerifyWorkload(seed)
    if name == "transform-points":
        return workloads.TransformPointsWorkload(seed)
    return workloads.CliTablesWorkload(seed, ROOT, OUT / f"cli-{seed}")


def setup_samples(wl, args, own: float) -> list:
    """Set-up times: this process plus fresh children, or bare CLI imports."""
    if wl.name == "cli-tables":
        return [wl.setup_sample() for _ in range(SETUP_SAMPLES)]
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe-setup"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Passes made so far, with their checks; one per benchmark process."""

    def __init__(self, wl):
        self.wl = wl
        self.next_pass = 0
        self.by_label = {}  # untraced operation times by operation label
        self.ref_ms = []
        # untraced pass and operation times over the reference time taken before the pass
        self.pass_rel = []
        self.op_rel = []
        self.attempted = 0
        self.failed = 0
        self.cases = None

    def measure(self, seconds: float, min_passes: int, tracer=None) -> list:
        """Run passes until both limits are met; returns this call's pass times."""
        times = []
        t_begin = perf_counter()
        while len(times) < min_passes or perf_counter() - t_begin < seconds:
            ref = [host_ref_ms() for _ in range(REF_SAMPLES)]
            self.ref_ms.extend(ref)
            ref_s = statistics.median(ref) / 1e3
            k = self.next_pass
            self.next_pass += 1
            if tracer is None:
                t0 = perf_counter()
                records = self.wl.run_pass(k)
                dt = perf_counter() - t0
            else:
                root = tracer.begin_pass(k)
                records = self.wl.run_pass(k, tracer)
                dt = tracer.end_pass(root)
            times.append(dt)
            traced = tracer is not None
            if not traced:
                self.pass_rel.append(dt / ref_s)
            self._check(k, records, traced, ref_s)
            print(f"# pass {k}{' traced' if traced else ''}: pass_s={dt:.4f} "
                  f"host.ref_ms={ref_s * 1e3:.3f}", flush=True)
        return times

    def _check(self, k, records, traced, ref_s):
        for label, dt, payload in records:
            self.attempted += 1
            reason = self.wl.check(label, payload)
            if reason is not None:
                self.failed += 1
                print(f"# FAILED pass {k} {label}: {reason}", flush=True)
            if not traced:
                self.by_label.setdefault(label, []).append(dt)
                self.op_rel.append(dt / ref_s)
        if self.cases is None and hasattr(self.wl, "cases"):
            self.cases = self.wl.cases(records)


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(run: Run, setup: list, times: list) -> dict:
    """Set-up, memory and failures as measured; times relative to the host reference.

    Host speed drifts by tens of percent within minutes, and a pass time
    divided by the reference-loop time taken just before it drifts far
    less. The wall times are printed on the ``# wall:`` line.
    """
    ops = [dt for label_times in run.by_label.values() for dt in label_times]
    rusage = resource.RUSAGE_CHILDREN if run.wl.name == "cli-tables" else resource.RUSAGE_SELF
    p90 = _p90(run.op_rel)
    print(f"# samples: passes={len(times)} ops={len(ops)} "
          f"ops_beyond_p90={sum(1 for x in run.op_rel if x > p90)} setup={len(setup)}")
    print(f"# wall: pass_s={statistics.median(times):.4f} "
          f"op_ms_p50={statistics.median(ops) * 1e3:.3f} op_ms_p90={_p90(ops) * 1e3:.3f} "
          f"host.ref_ms={statistics.median(run.ref_ms):.3f}")
    return {"setup_s": (statistics.median(setup), "s"),
            "pass_rel": (statistics.median(run.pass_rel), "ref"),
            "op_rel_p50": (statistics.median(run.op_rel), "ref"),
            "op_rel_p90": (p90, "ref"),
            "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - run.failed / run.attempted, "ratio")}


def per_layer(run: Run, tracer, untraced: list, traced: list) -> dict:
    from tracing import LAYERS, ROOT as ROOT_SPAN, span_totals
    totals = span_totals(tracer)
    n = len(traced)
    sums = tracer.sums

    def stat(name, key):
        return totals.get(name, {}).get(key, 0) / n

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in totals.items() if k.startswith(prefix + ".")) / n

    m = {}

    def fn(name, *stats):
        for key in stats:
            m[f"{name}.{key}"] = (stat(name, key), "s" if key == "self_s" else "count")

    m["minkowski.FourVector.count"] = (sums.get("minkowski.FourVector.count", 0) / n, "count")
    fn("minkowski.general_boost", "count", "self_s")
    fn("minkowski.bound_system", "count", "self_s")
    for name in ("xi_from_x", "pi_from_p", "alpha_from_a"):
        fn(f"constraint.{name}", "count", "self_s")
    for name in ("psi_position", "psi_momentum", "psi_bargmann", "psi_position_gradient",
                 "phi_1d", "oscillator_state", "ladder_apply"):
        fn(f"oscillator.{name}", "count", "self_s")
    phi_calls = totals.get("oscillator.phi_1d", {}).get("count", 0)
    m["oscillator.phi_1d.points_per_call"] = (
        sums.get("oscillator.phi_1d.points", 0) / phi_calls if phi_calls else 0.0, "points/call")
    fn("transforms.gauss_hermite", "count")
    rule_calls = totals.get("transforms.gauss_hermite", {}).get("count", 0)
    builds = sums.get("transforms.gauss_hermite.builds", 0)
    m["transforms.gauss_hermite.builds"] = (builds / n, "count")
    m["transforms.gauss_hermite.hit_ratio"] = (
        (rule_calls - builds) / rule_calls if rule_calls else 0.0, "ratio")
    m["transforms.gauss_hermite.build_s"] = (
        sums.get("transforms.gauss_hermite.build_s", 0) / n, "s")
    fn("transforms.fourier_forward", "count", "self_s")
    m["transforms.fourier_forward.targets"] = (
        sums.get("transforms.fourier_forward.targets", 0) / n, "count")
    for name in ("fourier_inverse", "fourier_forward1d", "bargmann_transform",
                 "normalization_integral", "overlap_integral"):
        fn(f"transforms.{name}", "count", "self_s")
    for name in ("invariance", "pde", "ladder", "nr-limit", "transforms"):
        suite = run.by_label.get(name) if run.wl.name == "verify" else None
        m[f"verify.{name}_s"] = (statistics.median(suite) if suite else 0.0, "s")
    m["verify.cases"] = (run.cases or 0, "count")
    fn("verify.finite_difference_gradient4", "count", "self_s")
    m["cli.start_s"] = (sums.get("cli.start_s", 0) / n, "s")
    for name in ("cmd_eval", "cmd_transform", "cmd_spectrum", "cmd_verify"):
        fn(f"cli.{name}", "self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    m["bench.residual_s"] = (stat(ROOT_SPAN, "self_s"), "s")
    m["wall.pass_s"] = (statistics.median(untraced), "s")
    m["trace.pass_s"] = (statistics.median(traced), "s")
    m["trace.spans_per_pass"] = (sum(v["count"] for v in totals.values()) / n, "count")
    m["host.ref_ms"] = (statistics.median(run.ref_ms), "ms")
    m["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    per_call = {name: {"calls_per_pass": stat(name, "count"),
                       "self_us": 1e6 * totals[name]["self_s"] / totals[name]["count"],
                       "inclusive_us": 1e6 * totals[name]["total_s"] / totals[name]["count"]}
                for name in PER_CALL if totals.get(name, {}).get("count")}
    print("# per-call " + json.dumps(per_call, sort_keys=True))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rqcm" / "__init__.py").is_file():
        print(f"error: no rqcm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rqcm
    if SRC not in Path(rqcm.__file__).resolve().parents:
        print(f"error: rqcm imported from {rqcm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    wl.setup()
    own_setup = perf_counter() - T_START
    if args.probe_setup:
        print(repr(own_setup))
        return 0
    print("# env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    run = Run(wl)
    if not args.trace:
        setup = setup_samples(wl, args, own_setup)
        times = run.measure(args.seconds, 1 if args.seconds == 0 else wl.min_passes)
        metrics = end_to_end(run, setup, times)
    else:
        from tracing import Tracer
        tracer = Tracer()
        untraced, traced = [], []
        t_begin = perf_counter()
        # alternate untraced and traced passes, so host drift hits both alike
        while not traced or perf_counter() - t_begin < args.seconds:
            untraced += run.measure(0, 1)
            if wl.name != "cli-tables":  # commands install the wrappers in their child
                tracer.install()
            try:
                traced += run.measure(0, 1, tracer)
            finally:
                tracer.uninstall()
        metrics = per_layer(run, tracer, untraced, traced)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
