"""Command-line harness: exit codes, report schema, output round-trips."""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import helmlab
from helmlab import Decomposition, RatMatrix, circulant, cli, exact_core


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes_for_n7(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "7")
    assert code == 0
    assert "result: OK" in out
    assert "inertia=(1,11,1)" in out


def test_verify_reports_even_determinant(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "6")
    assert code == 0
    assert "det(D) = 480" in out


def test_verify_rejects_small_n(capsys):
    code, _, err = run_main(capsys, "verify", "--n", "3")
    assert code == 2
    assert "n must be >= 4" in err


def test_verify_json_round_trips(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"n", "parity", "checks", "summary"}
    assert report["n"] == 5
    assert report["parity"] == "odd"
    assert set(report["summary"]) == {"det", "rank", "inertia", "rank_L", "elapsed_ms"}
    assert report["summary"]["det"] == "0"
    assert report["summary"]["rank"] == 8
    assert report["summary"]["inertia"] == [1, 7, 1]
    assert report["summary"]["rank_L"] == 7
    for check in report["checks"]:
        assert set(check) == {"name", "pass", "detail"}
        assert check["pass"] is True
    # re-encoding the parsed structure is lossless
    assert json.loads(json.dumps(report)) == report


def test_report_is_deterministic_for_fixed_n():
    first = cli.run_verification(6).to_dict()
    second = cli.run_verification(6).to_dict()
    first["summary"].pop("elapsed_ms")
    second["summary"].pop("elapsed_ms")
    assert first == second


def test_exit_code_zero_iff_all_checks_pass(capsys, monkeypatch):
    report = cli.run_verification(5)
    report.checks[0].passed = False
    monkeypatch.setattr(cli, "run_verification", lambda n: report)
    code, out, _ = run_main(capsys, "verify", "--n", "5")
    assert code == 1
    assert "result: FAILED" in out


def test_sweep_range_validation(capsys):
    code, _, err = run_main(capsys, "sweep", "--min", "5", "--max", "4")
    assert code == 2
    assert "min <= max" in err


def test_sweep_text_table(capsys):
    code, out, _ = run_main(capsys, "sweep", "--min", "4", "--max", "6")
    assert code == 0
    assert "3/3 parameter values fully verified" in out


def test_sweep_json_is_sorted_by_n(capsys):
    code, out, _ = run_main(capsys, "sweep", "--min", "4", "--max", "7", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["n"] for r in reports] == [4, 5, 6, 7]
    assert all(c["pass"] for r in reports for c in r["checks"])


def test_sweep_parallel_matches_sequential(capsys):
    code, out, _ = run_main(
        capsys, "sweep", "--min", "4", "--max", "6", "--parallel", "--format", "json"
    )
    assert code == 0
    parallel = json.loads(out)
    sequential = [cli.run_verification(n).to_dict() for n in (4, 5, 6)]
    for a, b in zip(parallel, sequential):
        a["summary"].pop("elapsed_ms")
        b["summary"].pop("elapsed_ms")
    assert parallel == sequential


def _identity_lines(out):
    return [line.strip() for line in out.splitlines() if line.lstrip().startswith("[")]


def test_eig_s_matches_analytic_values(capsys):
    code, out, _ = run_main(capsys, "eig", "--matrix", "S", "--n", "7")
    assert code == 0
    assert "j = 0..5: 4cos^2(pi j/6)" in out.splitlines()[0]
    assert _identity_lines(out) == ["[PASS] S = 2I + C, C the rim cycle's adjacency in build_helm(n)"]


def test_eig_b_values_for_n9(capsys):
    code, out, _ = run_main(capsys, "eig", "--matrix", "B", "--n", "9")
    assert code == 0
    assert out.splitlines()[0].endswith("j = 0..7: 0 at j=4, else -1")
    assert _identity_lines(out) == [
        "[PASS] (B + I) B = 0",
        "[PASS] trace B = 2 - n",
        "[PASS] B v = 0",
    ]


def test_eig_a_uses_derived_analytic_form(capsys):
    code, out, _ = run_main(capsys, "eig", "--matrix", "A", "--n", "11")
    assert code == 0
    assert out.splitlines()[0].endswith(
        "3/2 at j=0, 0 at j=5, else 1 + 1/(2cos^2(pi j/10))"
    )
    # A's proof reads the spectra of S and B, so it checks their identities too
    lines = _identity_lines(out)
    assert len(lines) == 7 and all(line.startswith("[PASS] ") for line in lines)
    assert lines[-3:] == ["[PASS] B S = -S", "[PASS] (A + B) S + 2B = 0", "[PASS] A v = 0"]
    assert out.splitlines()[-1].strip() == "result: OK"


@pytest.mark.parametrize("matrix", ("S", "B", "A"))
def test_eig_output_matches_the_golden_text(capsys, matrix):
    # every line eig prints at n = 41, byte for byte
    code, out, _ = run_main(capsys, "eig", "--matrix", matrix, "--n", "41")
    assert code == 0
    golden = Path(__file__).parent / "data" / f"eig_{matrix}_41.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_eig_rejects_even_n_for_coupling_block(capsys):
    code, _, err = run_main(capsys, "eig", "--matrix", "B", "--n", "8")
    assert code == 2
    assert "odd n" in err


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only sweep --parallel needs a process pool, and it imports one itself
    code = "import sys, helmlab.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "helmlab.cli", "verify", "--n", "4", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["det"] == "72"


def _boom(*args):
    raise RuntimeError("injected")


def test_crashing_setup_step_gives_failed_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_w_alpha", _boom)
    code, out, _ = run_main(capsys, "verify", "--n", "5", "--format", "json")
    assert code == 1
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["distance_block_vs_bfs", "determinant", "rank", "inertia", "setup:make_w_alpha"]
    failed = report["checks"][-1]
    assert failed["pass"] is False
    assert failed["detail"] == "raised RuntimeError: injected"
    assert set(report["summary"]) == {"det", "rank", "inertia", "rank_L", "elapsed_ms"}
    assert report["summary"]["inertia"] == [1, 7, 1]
    assert report["summary"]["rank_L"] is None


def test_crash_in_the_shared_l_d_product_skips_the_checks_that_read_it(capsys, monkeypatch):
    # W = L D + 2I - 2we' is built once, as a set-up step, for both
    # kernel_projector and equiv_formulation
    monkeypatch.setattr(cli, "correction_matrix", _boom)
    code, out, _ = run_main(capsys, "verify", "--n", "7", "--format", "json")
    assert code == 1
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[-3:] == ["closed_form_mp_inverse", "six_conditions", "setup:correction_matrix"]


def test_crash_in_the_factorization_of_d_leaves_its_summary_empty(capsys, monkeypatch):
    # one set-up step computes the inertia, determinant and pseudoinverse
    # of D, so a crash there leaves the rank, det and inertia unknown
    monkeypatch.setattr(cli, "factor_symmetric", _boom)
    code, out, _ = run_main(capsys, "verify", "--n", "6", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert [c["name"] for c in report["checks"]] == ["setup:factor_symmetric"]
    summary = report["summary"]
    assert [summary[key] for key in ("det", "rank", "inertia", "rank_L")] == [None] * 4


def test_crash_in_first_setup_step_fails_every_n_of_a_sweep(capsys, monkeypatch):
    monkeypatch.setattr(cli, "helm_distance_block", _boom)
    code, out, _ = run_main(capsys, "verify", "--n", "6")
    assert code == 1
    assert "[FAIL] setup:helm_distance_block: raised RuntimeError: injected" in out
    assert "result: FAILED" in out
    code, out, _ = run_main(capsys, "sweep", "--min", "4", "--max", "5")
    assert code == 1
    assert "0/2 parameter values fully verified" in out


@pytest.mark.parametrize(
    "matrix, patched, step",
    [
        ("B", "make_odd_case", "make_odd_case"),
        ("S", "cycle_signless_laplacian_spec", "materialize"),
    ],
)
def test_crash_in_eig_gives_failed_result(capsys, monkeypatch, matrix, patched, step):
    monkeypatch.setattr(cli, patched, _boom)
    code, out, _ = run_main(capsys, "eig", "--matrix", matrix, "--n", "9")
    assert code == 1
    assert _identity_lines(out) == [f"[FAIL] setup:{step}: raised RuntimeError: injected"]
    assert out.splitlines()[-1].strip() == "result: FAILED"


# Set-up steps that return a malformed value instead of raising: the report
# reads the value inside the step, so the step fails, and no traceback
# escapes.
@pytest.mark.parametrize(
    "patched, value, error",
    [
        ("make_odd_case", None, "AttributeError"),
        ("factor_symmetric", (1, 2), "ValueError"),
        ("make_w_alpha", object(), "AttributeError"),
    ],
)
def test_malformed_setup_value_gives_failed_report(capsys, monkeypatch, patched, value, error):
    monkeypatch.setattr(cli, patched, lambda arg: value)
    code, out, err = run_main(capsys, "verify", "--n", "7", "--format", "json")
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == [f"setup:{patched}"]
    assert checks[-1]["name"] == f"setup:{patched}"
    assert checks[-1]["detail"].startswith(f"raised {error}: ")


@pytest.mark.parametrize("matrix, patched", [("S", "build_helm"), ("A", "build_helm"), ("B", "make_odd_case")])
def test_malformed_setup_value_in_eig_gives_failed_result(capsys, monkeypatch, matrix, patched):
    monkeypatch.setattr(cli, patched, lambda n: None)
    code, out, err = run_main(capsys, "eig", "--matrix", matrix, "--n", "9")
    assert code == 1 and err == ""
    lines = _identity_lines(out)
    assert lines[-1].startswith(f"[FAIL] setup:{patched}: raised ")
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert out.splitlines()[-1].strip() == "result: FAILED"


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, values):
        return map(fn, values)


def test_sweep_parallel_starts_no_more_workers_than_values_or_cpus(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    sweep = ("sweep", "--parallel", "--min", "4", "--max")
    assert run_main(capsys, *sweep, "5")[0] == 0
    assert run_main(capsys, *sweep, "8")[0] == 0
    # without an affinity call the CPU count bounds the pool
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run_main(capsys, *sweep, "9")[0] == 0
    assert _SerialPool.sizes == [2, 3, 4]


def test_closed_stdout_pipe_exits_without_traceback():
    # the reader closes its end before anything is written, as
    # `helmlab sweep --format json | head -1` does once it has its line
    proc = subprocess.Popen(
        [sys.executable, "-m", "helmlab.cli", "sweep", "--min", "4", "--max", "5", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_4_13.json"


def test_sweep_4_13_json_matches_the_golden_report(capsys):
    # check order, detail strings and summaries for n = 4..13, timing aside
    code, out, _ = run_main(capsys, "sweep", "--min", "4", "--max", "13", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    for report in reports:
        report["summary"].pop("elapsed_ms")
    assert reports == json.loads(GOLDEN_SWEEP.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", (21, 41))
def test_verify_json_matches_the_golden_report(capsys, n):
    # the odd path at orders 41 and 81, timing aside
    code, out, _ = run_main(capsys, "verify", "--n", str(n), "--format", "json")
    assert code == 0
    report = json.loads(out)
    report["summary"].pop("elapsed_ms")
    golden = Path(__file__).parent / "data" / f"verify_{n}.json"
    assert report == json.loads(golden.read_text(encoding="utf-8"))


def _count_calls(monkeypatch, names, seen=None) -> Counter:
    """Count calls to helmlab's names (exact_core's or circulant's for a
    name the package root does not export) in every helmlab namespace;
    append (name, order of the first argument) of each call to seen if
    given."""
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "helmlab"]
    for name in names:
        home = next(m for m in (helmlab, exact_core, circulant) if hasattr(m, name))
        original = getattr(home, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            if seen is not None:
                seen.append((name, args[0].rows))
            return original(*args)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_verify_builds_each_per_n_object_once(monkeypatch):
    # count calls in every helmlab namespace, so no module can rebuild
    # D, w/alpha, the case or the factorization of D behind the report's
    # back; equiv_formulation is the one Penrose proof, from the
    # closed-form kernel and the shared L D, and runs no penrose_check;
    # the pseudoinverse from factor_symmetric is the one oracle for both
    # parities; X = -L/2 + alpha ww' is built once and shared by the
    # closed-form check, equiv_formulation and uniqueness; the bordered
    # builder lays out D, L and V, and A, B and S stay circulants, so
    # nothing is materialized (a name counted 0 times is absent)
    counted = (
        "bordered_circulant",
        "materialize",
        "helm_distance_block",
        "make_w_alpha",
        "make_even_case",
        "make_odd_case",
        "factor_symmetric",
        "pseudoinverse",
        "penrose_check",
    )
    calls = _count_calls(monkeypatch, counted)
    build_x = Decomposition.candidate.func

    def counting_build_x(dec):
        calls["candidate"] += 1
        return build_x(dec)

    counting = functools.cached_property(counting_build_x)
    counting.__set_name__(Decomposition, "candidate")
    monkeypatch.setattr(Decomposition, "candidate", counting)
    for n, case in ((6, "make_even_case"), (7, "make_odd_case")):
        calls.clear()
        assert cli.run_verification(n).all_passed
        assert calls == {
            "bordered_circulant": 3,
            "helm_distance_block": 1,
            "make_w_alpha": 1,
            case: 1,
            "factor_symmetric": 1,
            "candidate": 1,
        }


def _count_eliminations(monkeypatch, seen=None) -> Counter:
    """Count the elimination oracles and the matmuls of a run."""
    names = ("rank", "inertia", "inverse", "determinant", "pseudoinverse", "factor_symmetric")
    calls = _count_calls(monkeypatch, names, seen)
    matmul = RatMatrix.__matmul__

    def counting_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting_matmul)
    return calls


def test_verify_eliminates_once_per_fact(monkeypatch):
    # rank is never called: ranks are read off inertias; D is factored
    # once, and its inertia, determinant and pseudoinverse all come from
    # that one call; L's inertia is shared by rank_L and the PSD check;
    # nothing is inverted.  Every rank-one correction (X, W, 2 P_K, the
    # projection of a singular D's generalized inverse) is a row sweep,
    # every matrix-vector identity an integer sum, and every circulant
    # block identity a product of specs: L D inside W, the Schur chain and
    # the six block conditions lift their operands (circulant.lift) and
    # take no dense product.  So the products of a run, for either
    # parity, are:
    # - the factorization of D, below the recursion cutoff one congruence
    #   pass that carries its row transform: F' Omega F, the generalized
    #   inverse: 1;
    # - a congruence step takes one product when it eliminates three or
    #   more pivots, and sweeps one or two: only L's first step (the hub
    #   and the pendants) does, and neither the Schur complement's
    #   inertia nor D's congruence takes one: 1
    calls = _count_eliminations(monkeypatch)
    # L and the Schur complement
    expected = {"factor_symmetric": 1, "inertia": 2}
    assert cli.run_verification(6).all_passed
    assert calls == {**expected, "matmul": 2}
    calls.clear()
    assert cli.run_verification(7).all_passed
    assert calls == {**expected, "matmul": 2}


def test_verify_multiplies_no_zero_matrix(monkeypatch):
    # for even n, B = -I makes B + I zero; the block conditions take
    # (B + I) A as B A + A on specs, and no dense product sees a zero operand
    zero_operands = []
    matmul = RatMatrix.__matmul__

    def spying_matmul(a, b):
        if a.is_zero() or b.is_zero():
            zero_operands.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", spying_matmul)
    for n in range(4, 14):
        assert cli.run_verification(n).all_passed
        assert not zero_operands, (n, zero_operands)


@pytest.mark.parametrize("n, products", [(12, 7), (13, 8)])
def test_verify_factors_d_once_above_the_recursion_cutoff(monkeypatch, n, products):
    # D of order 23 or 25 is split once: Y = A^- B, B' Y, Z = Y S^- and
    # Z Y' for the generalized inverse, K Y' for the kernel of a singular
    # D, and one F' Omega F product in each half's congruence; the
    # projection onto the kernel's complement is a row sweep.  No
    # pseudoinverse, determinant or inertia call sees D: the only
    # order-(2n-1) inertia is L's, and nothing is inverted.  As below the
    # cutoff, the rest is L's first congruence step; W's L D, the Schur
    # chain and the block conditions multiply specs
    assert 2 * n - 1 > exact_core._SCHUR_CUTOFF
    seen = []
    calls = _count_eliminations(monkeypatch, seen)
    assert cli.run_verification(n).all_passed
    assert calls == {"factor_symmetric": 1, "inertia": 2, "matmul": products}
    assert seen == [
        ("factor_symmetric", 2 * n - 1),
        ("inertia", 2 * n - 1),
        ("inertia", n - 1),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", cli.MAX_N + 1),
        ("sweep", "--min", "4", "--max", cli.MAX_N + 1),
        ("eig", "--matrix", "S", "--n", cli.MAX_N + 1),
        ("verify", "--n", 3),
        ("eig", "--matrix", "S", "--n", 3),
    ],
)
def test_n_above_max_n_exits_2_before_any_matrix_is_built(capsys, monkeypatch, argv):
    # one gate refuses n outside 4..MAX_N, so n = 3 is refused the same way
    *flags, n = argv
    monkeypatch.setattr(RatMatrix, "__init__", _boom)
    monkeypatch.setattr(RatMatrix, "_from_ints", classmethod(_boom))
    monkeypatch.setattr(cli, "run_verification", _boom)
    code, out, err = run_main(capsys, *flags, str(n))
    assert code == 2
    assert out == ""
    bound = ">= 4" if n < 4 else f"<= {cli.MAX_N}"
    assert err == f"error: {flags[-1]} must be {bound}, got {n}\n"


def test_max_n_itself_is_accepted(capsys, monkeypatch):
    # verify and sweep get a stub report: the full order-(2 MAX_N - 1) run
    # is what MAX_N was measured with, far too slow for this suite
    seen = []

    def stub(n):
        seen.append(n)
        return cli.VerificationReport(n, "odd" if n % 2 else "even", [], None, None, None, None, 0.0)

    monkeypatch.setattr(cli, "run_verification", stub)
    assert run_main(capsys, "verify", "--n", str(cli.MAX_N))[0] == 0
    limits = ("--min", str(cli.MAX_N), "--max", str(cli.MAX_N))
    assert run_main(capsys, "sweep", *limits, "--format", "json")[0] == 0
    assert seen == [cli.MAX_N, cli.MAX_N]
    assert run_main(capsys, "eig", "--matrix", "S", "--n", str(cli.MAX_N))[0] == 0


def test_repeated_verification_keeps_no_memory():
    # Small tuples built from generators are resized, and freed resized
    # tuples pile up on CPython's per-length free lists (up to 2000 each)
    # until a full collection; with gc disabled nothing empties them.
    for n in (8, 9):
        cli.run_verification(n)
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                for n in (8, 9):
                    assert cli.run_verification(n).all_passed
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert kept < 64 * 1024
