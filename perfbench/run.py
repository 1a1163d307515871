"""helmlab benchmark: one command per (workload, seed), every op checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-odd --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md`` for why):

    verify-odd     helmlab verify --n 21 --format json
    sweep          helmlab sweep --min 4 --max 13 --format json
    oracle-random  the generic exact_core oracles on seeded random matrices

The ops of a run execute one after another in this process (a closed
loop, one client, no threads or pools) for about ``--seconds`` of op
time.  Each op's output is checked outside its timed region;
a failed check counts in ``failed`` and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  Their times are in
reference seconds: wall time scaled by the CPU speed measured while the
ops run (see ``refclock.py``), because the speed of a shared host drifts
more than any useful regression bound.  The raw wall times are printed
as text lines.  ``--trace 1`` first runs
half the time untraced, then half with every layer function wrapped, and
prints the per-layer metrics (per traced op) and the tracing overhead.
The human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
record of the run and, for traced runs, its spans are written under
``.perfbench-out/`` in the checkout.

Exit codes: 0 every op correct, 1 an op failed its check, 2 the package
or the benchmark's declaration could not be loaded (nothing is printed
on standard output then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import refclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 15
P90_MIN_OPS = 100

# Per-op call counts of one ``verify --n 21``, measured at the seed
# program.  The traced run compares against them to show that no call
# bypasses the wrappers; removing redundant work will lower them.
SEED_CALLS = {
    "exact_core.matmul": 32,
    "exact_core.rank": 5,
    "exact_core.inverse": 5,
    "exact_core.inertia": 5,
    "exact_core.pseudoinverse": 2,
    "exact_core.penrose_check": 2,
    "graphs.helm_distance_block": 8,
    "closed_form.make_w_alpha": 4,
    "circulant.materialize": 27,
}


class SetupError(Exception):
    """The package or the benchmark declaration cannot be loaded."""


def load_package() -> None:
    """Import helmlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import helmlab
    except ImportError as exc:
        raise SetupError(f"cannot import helmlab from {SRC}: {exc}") from exc
    where = Path(helmlab.__file__).resolve().parent.parent
    if where != SRC:
        raise SetupError(f"helmlab was imported from {where}, not from {SRC}")


def load_declaration() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc


@dataclass
class Phase:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # wall start, end per op
    failures: list[tuple[int, list[str]]] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.intervals]

    @property
    def ops_per_s(self) -> float:
        return len(self.intervals) / sum(self.times)


def run_phase(workload, inputs: list, seconds: float, tracer=None, first_op: int = 0) -> Phase:
    """Run whole rounds of ops for about ``seconds`` of op time.

    The run stops at the round end nearest that deadline: once the next
    round would be expected to end more than half a round past it.
    """
    phase = Phase()
    busy = 0.0
    i = 0
    while True:
        inp = inputs[(first_op + i) % len(inputs)]
        t0 = perf_counter()
        try:
            if tracer is None:
                out = workload.run_op(inp)
            else:
                with tracer.op(first_op + i):
                    out = workload.run_op(inp)
            error = None
        except Exception as exc:  # a crashed op is a failed op; keep measuring
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        phase.intervals.append((t0, t1))
        busy += t1 - t0
        try:
            problems = [error] if error else workload.check(inp, out)
        except Exception as exc:  # output too malformed to inspect
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            phase.failures.append((first_op + i, problems))
        i += 1
        rounds = i // workload.round_size
        if i % workload.round_size == 0 and busy + busy / rounds / 2 >= seconds:
            return phase


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Wall time from starting a fresh process to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe exited with {proc.returncode}")
    return samples


def run_context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def seed_call_diffs(calls, ops: int) -> dict[str, tuple[float, int]]:
    """Pinned verify-odd counts that the traced run did not reproduce."""
    return {name: (calls[name] / ops, want) for name, want in SEED_CALLS.items()
            if calls[name] != want * ops}


def untraced_run(workload, inputs: list, seconds: float, setup: list[float]):
    """The end-to-end run: phases, metrics and extra text lines."""
    with refclock.RefClock() as clock:
        phase = run_phase(workload, inputs, seconds)
    ref = [clock.scaled(t0, t1) for t0, t1 in phase.intervals]
    metrics = {
        "op_s.p50": (statistics.median(ref), "s"),
        "ops_per_s": (len(ref) / sum(ref), "1/s"),
        # set-up runs in other processes, so scale it by the run's mean speed
        "setup_s": (statistics.median(setup) * clock.speed(), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    if len(ref) >= P90_MIN_OPS:
        p90 = statistics.quantiles(ref, n=10)[-1]
        line = f"op_s.p90 {p90!r} s ({len(ref)} ops)"
    else:
        line = f"op_s.p90 not reported: {len(ref)} ops < {P90_MIN_OPS}"
    lines = [
        line,
        f"wall op_s.p50 {statistics.median(phase.times)!r} s, ops_per_s {phase.ops_per_s!r} 1/s, "
        f"setup_s {statistics.median(setup)!r} s",
        f"cpu speed {clock.speed()!r} of reference ({len(clock.starts)} probes)",
    ]
    return [phase], metrics, lines


def traced_run(workload, inputs: list, args: argparse.Namespace):
    """Half the time untraced, half traced: per-layer metrics per traced op."""
    from tracing import Tracer

    plain = run_phase(workload, inputs, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, inputs, args.seconds / 2, tracer, len(plain.times))
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    ops = len(traced.times)
    metrics = tracer.metrics(ops)
    metrics["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    overhead = 100 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    metrics["trace.overhead_pct"] = (overhead, "%")
    lines = []
    if args.workload == "verify-odd" and not args.tiny:
        diffs = seed_call_diffs(tracer.calls, ops)
        lines.append("seed call counts: " + ("reproduced" if not diffs else ", ".join(
            f"{name} {got:g} (seed {want})" for name, (got, want) in diffs.items())))
    return [plain, traced], metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        load_package()
        declaration = load_declaration()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import make_workloads  # imports helmlab, so only after load_package

    workloads = make_workloads(args.tiny)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    if args.probe:
        workload.prepare(args.seed)
        print("ready", flush=True)
        return 0

    context = run_context(args)
    try:
        setup = measure_setup(args) if args.trace == 0 else []
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = workload.prepare(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace == 0:
        phases, metrics, lines = untraced_run(workload, inputs, args.seconds, setup)
        wanted = [m["name"] for m in declaration["end_to_end"]]
    else:
        phases, metrics, lines = traced_run(workload, inputs, args)
        wanted = [m["name"] for m in declaration["per_layer"]]
    if sorted(metrics) != sorted(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    why = {w["name"]: w["why"] for w in declaration["workloads"]}.get(args.workload, "")
    print("# " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(f"# why: {why}")
    for op_id, problems in failures[:10]:
        print(f"FAILED op {op_id}: {'; '.join(problems)}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name} {value!r} {unit}")
    lines.append(f"fail_ratio {len(failures) / attempted!r} ({len(failures)} of {attempted} ops)")
    print("\n".join(lines))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    record = {"context": context, "why": why, "notes": lines, **result}
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
