"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SELF = [f"{layer}.self_s" for layer in tracing.LAYERS] + ["bench.residual_s"]


def _smoke(workload, trace):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "0", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass_smoke_reports_every_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # a smoke run traces exactly one pass, so its time is the sum of self times
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert sum(metrics[k] for k in LAYER_SELF) == pytest.approx(metrics["trace.pass_s"],
                                                                    rel=1e-9)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _one_pass(wl, keep):
    wl.setup()
    wl.inputs = [[op for op in wl.inputs[0] if keep(op.label)]]
    return run.Run(wl)


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    wl = workloads.TransformPointsWorkload(seed=0)
    r = _one_pass(wl, lambda label: not label.startswith("fourier_points"))
    closed = workloads.oscillator.momentum_profile
    monkeypatch.setattr(workloads.oscillator, "momentum_profile",
                        lambda state: (lambda *p: 1.001 * closed(state)(*p)))
    r.measure(0, 1)
    assert (r.attempted, r.failed) == (7, 1)
    e2e = run.end_to_end(r, [1.0], [1.0])
    assert e2e["ok_frac"][0] == pytest.approx(6 / 7)


def test_layer_self_times_nest_to_traced_wall_time():
    wl = workloads.TransformPointsWorkload(seed=3)
    r = _one_pass(wl, lambda label: not label.startswith("fourier_points"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = r.measure(0, 1, tracer)
    finally:
        tracer.uninstall()
    totals = tracing.span_totals(tracer)
    wall = totals[tracing.ROOT]["total_s"]
    layers = {layer: sum(v["self_s"] for k, v in totals.items() if k.startswith(layer + "."))
              for layer in tracing.LAYERS}
    assert sum(layers.values()) + totals[tracing.ROOT]["self_s"] == pytest.approx(wall, rel=1e-12)
    assert wall == traced[0]
    assert totals["transforms.fourier_forward"]["count"] == 1
    assert totals["oscillator.phi_1d"]["count"] > 0
    # the wrappers are gone once uninstalled
    assert workloads.rqcm.fourier_of_state is workloads.transforms.__dict__["fourier_of_state"]
    assert not hasattr(workloads.rqcm.fourier_of_state, "__wrapped__")


def test_verify_cases_repeat_under_the_same_seed():
    wl = workloads.VerifyWorkload(seed=0)
    wl.setup()
    first, second = (wl.cases(wl.run_pass(0)) for _ in range(2))
    assert first == second > 10000


def test_command_floats_read_back_exactly_and_never_as_options():
    for x in (-4.57751665037907e-05, -2.7535413082685828e-05, 0.98, -3.5993113799806435, 1e-300):
        word = workloads._num(x)
        assert float(word) == x
        assert "e" not in word.lower() and not word.startswith("--")


@pytest.mark.xfail(strict=True, reason="rqcm defect: argparse reads a negative number in "
                   "exponent notation, such as -4.5e-05, as an option and exits 2")
def test_cli_accepts_negative_velocity_in_exponent_notation(tmp_path):
    from rqcm import cli
    argv = ["eval", "--v", "0", "0", "-4.5e-05", "--samples", "3",
            "--out", str(tmp_path / "table.csv")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0
