"""Command-line verification harness.

Three subcommands:

    verify --n N [--format text|json]      run the full per-n check suite
    sweep --min A --max B [--parallel]     one report per n, merged ascending
    eig --matrix S|B|A --n N               a rim block's spectrum, proved exactly

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
arguments (n below 4 or above MAX_N, an empty range).  Rationals are
serialized as exact "p/q" strings in JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .characterization import (
    build_kernel_projector,
    check_conditions_i_vi,
    check_equiv_formulation,
    check_uniqueness,
    correction_matrix,
    rank_l_check,
    schur_psd_check,
)
from .circulant import Circulant, alternating_signs, cycle_signless_laplacian_spec, lift
from .closed_form import (
    closed_form_inverse,
    closed_form_mp_inverse,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    rank_one_scale,
)
from .cyclotomic import bordered_inertia, symmetric_blocks
from .exact_core import (
    Decomposition,
    InertiaTriple,
    RatMatrix,
    factor_symmetric,
    inertia,
    vec,
)
from .graphs import bfs_distance_matrix, build_helm, helm_distance_block

# Largest n accepted by verify, sweep and eig, so that an oversized n is
# refused instead of starting a dense run that does not end.  The dense
# oracle, the factorization of D, costs about n^3 integer operations; the
# inertias of L and of the Schur chain's complement are read off
# cyclotomic trace forms of order at most n - 1.  README states the time
# of a run at this n.
MAX_N = 130


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        detail = f": {self.detail}" if self.detail else ""
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}{detail}"


class _SetupFailed(Exception):
    """A set-up step raised; its failed check is already recorded."""


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


class _Checks(list):
    """CheckResults in run order, for verify and eig: a raise fails, never escapes."""

    def run(self, name: str, fn) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, _raised(exc)
        self.append(CheckResult(name, passed, detail))

    @contextlib.contextmanager
    def setup(self, step: str):
        """A set-up step: a raise inside the with block, in the step or in
        reading the values it returned, fails the step and ends the run."""
        try:
            yield
        except Exception as exc:  # a crashed set-up step is a failed check
            self.append(CheckResult(f"setup:{step}", False, _raised(exc)))
            raise _SetupFailed(step) from exc


@dataclass
class VerificationReport:
    n: int
    parity: str
    checks: list[CheckResult] = field(default_factory=_Checks)
    # None when the set-up step computing the value raised
    det: Optional[Fraction] = None
    rank_d: Optional[int] = None
    inertia_triple: Optional[InertiaTriple] = None
    rank_l: Optional[int] = None
    elapsed_ms: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "parity": self.parity,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail} for c in self.checks
            ],
            "summary": {
                "det": None if self.det is None else str(self.det),
                "rank": self.rank_d,
                "inertia": None if self.inertia_triple is None else list(self.inertia_triple),
                "rank_L": self.rank_l,
                "elapsed_ms": self.elapsed_ms,
            },
        }

    def to_text(self) -> str:
        lines = [f"helm n={self.n} ({self.parity}), {2 * self.n - 1} vertices"]
        lines += [f"  {c}" for c in self.checks]
        lines.append(
            f"  summary: det={self.det} rank={self.rank_d} "
            f"inertia={_inertia_text(self.inertia_triple)} "
            f"rank_L={self.rank_l} elapsed={self.elapsed_ms:.1f}ms"
        )
        lines.append(f"  result: {'OK' if self.all_passed else 'FAILED'}")
        return "\n".join(lines)


def _inertia_text(tri: Optional[InertiaTriple]) -> str:
    return "None" if tri is None else f"({tri.i_plus},{tri.i_minus},{tri.i_zero})"


def run_verification(n: int) -> VerificationReport:
    """Run every check for one n >= 4 and collect the results.

    Every n takes one path through the same eleven checks; only the case
    constructor, the expected values and the closed-form check's name
    depend on parity.  Each per-n object is built once, by a set-up
    step: D; one factorization of D (factor_symmetric) that gives its
    inertia, determinant and pseudoinverse (D^-1 for even n); w, alpha
    and the closed-form kernel basis, the closed-form case, the rim
    cycle's signless Laplacian S (a Circulant, like the case's A and B:
    no circulant block is made dense), the Decomposition (and with it X),
    W = L D + 2I - 2we' (correction_matrix) and the inertia of L.  The
    ranks of D and L are read off their inertias.  The checks share them
    and rebuild nothing.  Each identity is checked once: the closed-form
    check only compares X with the pseudoinverse, and equiv_formulation
    proves the Penrose conditions from D w = e/alpha, D u = 0 and X u = 0
    for the kernel vectors u, and W = 2 P_K, with no dense product of its
    own: outside the factorization of D and the inertias, L D, taken on
    the bordered specs of L and D, is the report's one square product of
    order 2n-1.  kernel_projector, W = V,
    with them gives V = 2(I - X D) and so D V = 0, V L = 0, V w = 0,
    V e = 0 and V symmetric (build_kernel_projector).

    A check that raises is recorded as failed with the exception text.
    A set-up step that raises, or whose value cannot be read as the
    report needs it, is recorded as a failed check named
    ``setup:<step>``; the checks after it are not run, and the summary
    values not yet computed are None.  For every n >= 4 the report is
    produced; n < 4 raises ValueError.
    """
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    start = time.perf_counter()
    report = VerificationReport(n, "even" if n % 2 == 0 else "odd")
    try:
        _run_checks(n, report)
    except _SetupFailed:
        pass
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _run_checks(n: int, report: VerificationReport) -> None:
    """Append the checks for n to report and fill in its summary values."""
    even = n % 2 == 0
    order = 2 * n - 1
    k = n - 1
    checks = report.checks

    with checks.setup("helm_distance_block"):
        d = helm_distance_block(n)
    with checks.setup("factor_symmetric"):
        inertia_val, det_val, pinv = factor_symmetric(d)
        # Sylvester's law of inertia: the rank is the number of nonzero signs
        rank_val = inertia_val.i_plus + inertia_val.i_minus
    report.inertia_triple, report.det, report.rank_d = inertia_val, det_val, rank_val

    def chk_block():
        ok = d == bfs_distance_matrix(build_helm(n))
        return ok, f"block formula vs BFS on {order} vertices"

    def chk_det():
        if even:
            expected = Fraction(3 * (n - 1) * 2 ** (n - 1))
            return det_val == expected, f"det(D) = {det_val}, expected 3(n-1)2^(n-1) = {expected}"
        return det_val == 0, f"det(D) = {det_val}, expected 0 (singular)"

    def chk_rank():
        expected = order if even else order - 1
        return rank_val == expected, f"rank(D) = {rank_val}, expected {expected}"

    def chk_inertia():
        expected = InertiaTriple(1, 2 * n - 2, 0) if even else InertiaTriple(1, 2 * n - 3, 1)
        return inertia_val == expected, f"inertia(D) = {tuple(inertia_val)}, expected {tuple(expected)}"

    checks.run("distance_block_vs_bfs", chk_block)
    checks.run("determinant", chk_det)
    checks.run("rank", chk_rank)
    checks.run("inertia", chk_inertia)

    with checks.setup("make_w_alpha"):
        vectors = make_w_alpha(n)
        w, alpha = vectors.w, vectors.alpha
    with checks.setup("make_even_case" if even else "make_odd_case"):
        case = (make_even_case if even else make_odd_case)(n)
        lap = case.laplacian_like
    # S stays a Circulant; the step keeps the name that failure reports print
    with checks.setup("materialize"):
        s = Circulant(cycle_signless_laplacian_spec(k))
    with checks.setup("decomposition"):
        dec = Decomposition(lap, w, alpha)
    closed_form = closed_form_inverse if even else closed_form_mp_inverse

    def chk_closed():
        ok = closed_form(dec) == pinv
        return ok, "-L/2 + alpha ww' matches the Moore-Penrose oracle"

    checks.run("closed_form_inverse" if even else "closed_form_mp_inverse", chk_closed)

    def chk_six():
        conditions = check_conditions_i_vi(case.rim_block, case.coupling_block, s)
        held = sum(1 for b in conditions if b)
        return all(conditions), f"{held}/6 block conditions hold"

    checks.run("six_conditions", chk_six)

    # L's bordered element, lifted once for L D, L's inertia and the
    # Schur chain
    with checks.setup("correction_matrix"):
        form = lift(lap)
        correction = correction_matrix(d, dec, form)

    def chk_kernel():
        ok = correction == build_kernel_projector(case)
        return ok, "L D + 2I - 2we' = V, with V = 2(B + I) on the rim"

    checks.run("kernel_projector", chk_kernel)

    def chk_equiv():
        ok = check_equiv_formulation(d, dec, vectors.kernel, correction)
        return ok, "witness identities certify -L/2 + alpha ww' as the MP inverse"

    checks.run("equiv_formulation", chk_equiv)

    def chk_unique():
        alpha, w = check_uniqueness(d, dec)
        expected_w = vec(
            [Fraction(5 - n, 4)] + [Fraction(-1, 4)] * k + [Fraction(1, 2)] * k
        )
        ok = alpha == rank_one_scale(n) and w == expected_w
        return ok, f"recovered alpha = {alpha} and w = (5-n, -e', 2e')'/4"

    checks.run("uniqueness", chk_unique)

    # an L that does not lift, or whose blocks are not all symmetric,
    # takes the dense congruence
    with checks.setup("inertia_L"):
        inertia_l = bordered_inertia(form) if form is not None and symmetric_blocks(form) else inertia(lap)
        rank_l = inertia_l.i_plus + inertia_l.i_minus
    report.rank_l = rank_l

    def chk_psd():
        ok = inertia_l.i_minus == 0 and schur_psd_check(form, case)
        return ok, f"inertia(L) = {tuple(inertia_l)}; Schur chain verified"

    def chk_rank_l():
        r = rank_l_check(rank_val, rank_l)
        expected, formula = (2 * n - 2, "2n-2") if even else (2 * n - 3, "2n-3")
        return r == expected, f"rank(L) = {r}, expected {formula} = {expected}"

    checks.run("psd_via_schur", chk_psd)
    checks.run("rank_of_l", chk_rank_l)


def _n_out_of_range(flag: str, value: int) -> bool:
    """True (with a message) when value lies outside 4..MAX_N."""
    if 4 <= value <= MAX_N:
        return False
    bound = ">= 4" if value < 4 else f"<= {MAX_N}"
    print(f"error: {flag} must be {bound}, got {value}", file=sys.stderr)
    return True


def _cmd_verify(args: argparse.Namespace) -> int:
    if _n_out_of_range("--n", args.n):
        return 2
    report = run_verification(args.n)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.min < 4 or args.min > args.max:
        print(f"error: need 4 <= min <= max, got {args.min}..{args.max}", file=sys.stderr)
        return 2
    if _n_out_of_range("--max", args.max):
        return 2
    values = list(range(args.min, args.max + 1))
    if args.parallel and len(values) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this path needs it
        # the pool starts every worker up front: no more than n values or usable CPUs
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(max_workers=min(len(values), cpus or 1)) as pool:
            reports = list(pool.map(run_verification, values))
    else:
        reports = [run_verification(n) for n in values]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        header = f"{'n':>3} {'parity':>6} {'det':>12} {'rank':>5} {'inertia':>12} {'rank_L':>6} {'ms':>8} result"
        print(header)
        print("-" * len(header))
        for r in reports:
            tri = _inertia_text(r.inertia_triple)
            status = "OK" if r.all_passed else "FAILED"
            print(
                f"{r.n:>3} {r.parity:>6} {str(r.det):>12} {str(r.rank_d):>5} {tri:>12} "
                f"{str(r.rank_l):>6} {r.elapsed_ms:>8.1f} {status}"
            )
        total = sum(1 for r in reports if r.all_passed)
        print(f"{total}/{len(reports)} parameter values fully verified")
    return 0 if all(r.all_passed for r in reports) else 1


def _cmd_eig(args: argparse.Namespace) -> int:
    n = args.n
    name = args.matrix
    if _n_out_of_range("--n", n):
        return 2
    if name in ("A", "B") and (n % 2 == 0 or n < 5):
        print(f"error: matrix {name} requires odd n >= 5, got {n}", file=sys.stderr)
        return 2
    # spectra on the Fourier vectors f_j, proved by the identities below (see
    # check_conditions_i_vi); A's proof uses S's and B's, so it checks theirs
    k, h = n - 1, (n - 1) // 2
    spectrum = {
        "S": f"4cos^2(pi j/{k})",
        "B": f"0 at j={h}, else -1",
        "A": f"3/2 at j=0, 0 at j={h}, else 1 + 1/(2cos^2(pi j/{k}))",
    }[name]
    checks, claims = _Checks(), []
    try:
        with checks.setup("materialize"):
            s = Circulant(cycle_signless_laplacian_spec(k))
        if name != "B":
            with checks.setup("build_helm"):
                rim = build_helm(n)[1:n]
            with checks.setup("rim_cycle"):
                adjacency = (int(j + 1 in rim[i]) for i in range(k) for j in range(k))
                cycle = RatMatrix(k, k, adjacency)
            claims.append(("S = 2I + C, C the rim cycle's adjacency in build_helm(n)",
                           lambda: s.dense() == 2 * RatMatrix.identity(k) + cycle))
        if name != "S":
            with checks.setup("make_odd_case"):
                case = make_odd_case(n)
                a, b = case.rim_block, case.coupling_block
            with checks.setup("six_conditions"):
                conditions = check_conditions_i_vi(a, b, s)
            v = alternating_signs(k)
            claims += [
                ("(B + I) B = 0", lambda: conditions.b_annihilated),
                ("trace B = 2 - n", lambda: k * b.spec[0] == 2 - n),
                ("B v = 0", lambda: not any(b.dense().mul_vector(v))),
            ]
            if name == "A":
                claims += [
                    ("B S = -S", lambda: conditions.b_absorbs_s),
                    ("(A + B) S + 2B = 0", lambda: conditions.s_balance),
                    ("A v = 0", lambda: not any(a.dense().mul_vector(v))),
                ]
        for identity, holds in claims:
            checks.run(identity, lambda: (holds(), ""))
    except _SetupFailed:
        pass
    ok = all(c.passed for c in checks)
    print(f"spectrum of {name} for n={n} (order {k}), j = 0..{k - 1}: {spectrum}")
    print("\n".join([f"  {c}" for c in checks] + [f"  result: {'OK' if ok else 'FAILED'}"]))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmlab",
        description="Exact verification of helm graph distance matrix identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full check suite for one n")
    p_verify.add_argument("--n", type=int, required=True, help=f"helm parameter, 4 <= n <= {MAX_N}")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify a range of n")
    p_sweep.add_argument("--min", type=int, default=4)
    p_sweep.add_argument("--max", type=int, default=13, help=f"at most {MAX_N}")
    p_sweep.add_argument("--parallel", action="store_true", help="one process per n")
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_eig = sub.add_parser("eig", help="a rim block's spectrum, proved by exact identities")
    p_eig.add_argument("--matrix", choices=("S", "B", "A"), required=True,
                       help="S: rim cycle signless Laplacian; A/B: odd-case rim/coupling blocks")
    p_eig.add_argument("--n", type=int, required=True, help=f"4 <= n <= {MAX_N}")
    p_eig.set_defaults(func=_cmd_eig)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush inside the try, so a closed pipe raises here and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `helmlab sweep | head -1`); point
        # stdout at devnull so the flush at interpreter exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
