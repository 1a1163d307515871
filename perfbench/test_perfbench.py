"""Tests of the benchmark itself: smoke runs, the gate, and the tracer.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    fail_line = next(line for line in lines if line.startswith("fail_ratio "))
    assert fail_line.split()[1] == "0.0"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_expectation_is_a_failure(monkeypatch, capsys):
    def wrong_det(n):
        return {**workloads.paper_summary(n), "det": "1"}

    bad = workloads.HelmCli(["verify", "--n", "7"], [7], expect=wrong_det)
    phase = run.run_phase(bad, bad.prepare(0), 0.0)
    assert len(phase.failures) == len(phase.times) == 1
    assert "det = '0', expected '1'" in phase.failures[0][1][0]

    tiny = {**workloads.make_workloads(tiny=True), "verify-odd": bad}
    monkeypatch.setattr(workloads, "make_workloads", lambda tiny_sizes: tiny)
    code = run.main(["--workload", "verify-odd", "--seed", "0", "--seconds", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_oracle_gate_rejects_a_wrong_output():
    oracle = workloads.OracleRandom([6], rounds=1)
    case = oracle.prepare(5)[0]
    out = oracle.run_op(case)
    assert oracle.check(case, out) == []
    wrong = dataclasses.replace(out, rank=out.rank - 1)
    assert any("nullity" in p for p in oracle.check(case, wrong))


def test_refclock_scales_probe_work_to_reference_seconds():
    previous = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        t0 = perf_counter()
        for _ in range(200):
            refclock.probe()
        t1 = perf_counter()
    # 200 probes of work are 200 reference probe times, whatever the CPU speed
    assert clock.scaled(t0, t1) == pytest.approx(200 * refclock.REF_PROBE_S, rel=0.5)
    assert len(clock.starts) > 2 and clock.speed() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def _profiled_calls(fn) -> dict[str, int]:
    """Call counts of the original layer functions, seen by a profile hook."""
    codes = {
        inspect.unwrap(tracing._original(mod, name)).__code__: f"{mod}.{name}"
        for mod, names in tracing.LAYERS.items()
        for name in names
    }
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_wrappers_see_every_call_and_self_time_adds_up():
    tiny = workloads.make_workloads(tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def ops():
            for op_id, name in enumerate(WORKLOADS):
                w = tiny[name]
                for inp in w.prepare(1):
                    with tracer.op(op_id):
                        assert w.check(inp, w.run_op(inp)) == []

        seen = _profiled_calls(ops)
    finally:
        tracer.uninstall()
    assert {name: tracer.calls[name] for name in seen} == seen
    assert seen["exact_core.null_space_basis"] > 0 and seen["cli.report"] == 2
    # self times partition each op's time, so they add up to the ops' totals
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["op"], rel=1e-6)
    assert tracer.self_s["exact_core.pseudoinverse"] < tracer.total_s["exact_core.pseudoinverse"]
    assert all(parent < index for index, (_, _, _, parent, _) in enumerate(tracer.spans))
    assert not _wrapped_functions_left()


def _wrapped_functions_left() -> list[str]:
    import helmlab

    left = ["RatMatrix.__matmul__"] if hasattr(helmlab.RatMatrix.__matmul__, "__wrapped__") else []
    for name, mod in sys.modules.items():
        if name == "helmlab" or name.startswith("helmlab."):
            left += [f"{name}.{a}" for a, v in vars(mod).items() if hasattr(v, "__wrapped__")]
    return left


def test_traced_verify_odd_reproduces_the_seed_call_counts():
    w = workloads.make_workloads()["verify-odd"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run.run_phase(w, w.prepare(0), 0.0, tracer)
    finally:
        tracer.uninstall()
    assert phase.failures == []
    assert run.seed_call_diffs(tracer.calls, len(phase.times)) == {}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import helmlab" in proc.stderr
