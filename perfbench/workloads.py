"""The benchmark's workloads: inputs from a seed, one timed op, and its gate.

A workload has three parts:

* ``prepare(seed)`` builds the list of op inputs (set-up, untimed);
* ``run_op(inp)`` runs one op on one input (the only timed call);
* ``check(inp, out)`` returns the problems found in the op's output
  (outside the timed region).  An empty list means the op passed.

The helm workloads drive the ``helmlab`` CLI in-process; the oracle
workload calls the public ``exact_core`` oracles on seeded random
rational matrices.  Expected values are worked out here from the paper,
or by plain ``Fraction`` arithmetic, never by the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import helmlab.cli
from helmlab import RatMatrix, exact_core

# Check names the seed's reports carry; a report that drops one has
# skipped work, so it fails the gate.
EVEN_CHECKS = frozenset(
    {
        "distance_block_vs_bfs",
        "determinant",
        "rank",
        "inertia",
        "closed_form_inverse",
        "six_conditions",
        "kernel_projector",
        "equiv_formulation",
        "uniqueness",
    }
)
ODD_CHECKS = (EVEN_CHECKS - {"closed_form_inverse"}) | {
    "closed_form_mp_inverse",
    "psd_via_schur",
    "rank_of_l",
}


def paper_summary(n: int) -> dict:
    """The report summary the paper predicts for helm parameter n.

    For even n, L = -2(D^-1 - alpha ww') has zero row sums, so its rank
    is 2n - 2; for odd n it is 2n - 3.
    """
    if n % 2 == 0:
        return {
            "det": str(3 * (n - 1) * 2 ** (n - 1)),
            "rank": 2 * n - 1,
            "inertia": [1, 2 * n - 2, 0],
            "rank_L": 2 * n - 2,
        }
    return {"det": "0", "rank": 2 * n - 2, "inertia": [1, 2 * n - 3, 1], "rank_L": 2 * n - 3}


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


class HelmCli:
    """Ops that run one fixed ``helmlab`` command with ``--format json``.

    The command takes no random input, so every seed gives the same op;
    ``ns`` are the helm parameters its report must cover, in order.
    """

    def __init__(
        self,
        argv: list[str],
        ns: list[int],
        expect: Callable[[int], dict] = paper_summary,
    ):
        self.argv = argv + ["--format", "json"]
        self.ns = ns
        self.expect = expect
        self.round_size = 1

    def prepare(self, seed: int) -> list[list[str]]:
        return [self.argv]

    def run_op(self, argv: list[str]) -> CliOutput:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # looked up per call, so a traced run reaches the wrapper
            code = helmlab.cli.main(list(argv))
        return CliOutput(code, buf.getvalue())

    def check(self, argv: list[str], out: CliOutput) -> list[str]:
        problems = [] if out.code == 0 else [f"exit code {out.code}"]
        try:
            reports = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        if isinstance(reports, dict):
            reports = [reports]
        got_ns = [r.get("n") for r in reports]
        if got_ns != self.ns:
            return problems + [f"reports cover n = {got_ns}, expected {self.ns}"]
        for n, report in zip(self.ns, reports):
            checks = report["checks"]
            failed = [c["name"] for c in checks if c["pass"] is not True]
            if failed:
                problems.append(f"n={n}: checks not passed: {failed}")
            missing = (EVEN_CHECKS if n % 2 == 0 else ODD_CHECKS) - {c["name"] for c in checks}
            if missing:
                problems.append(f"n={n}: checks missing: {sorted(missing)}")
            summary = report["summary"]
            for key, want in self.expect(n).items():
                if summary.get(key) != want:
                    problems.append(f"n={n}: {key} = {summary.get(key)!r}, expected {want!r}")
        return problems


# -- oracle-random --------------------------------------------------------


def _fraction(rng: random.Random) -> Fraction:
    """p/q with |p| <= 9 and 1 <= q <= 6, the test suite's distribution."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_rows(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [[_fraction(rng) for _ in range(cols)] for _ in range(rows)]


def _mat_vec(rows: list[list[Fraction]], v) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


@dataclass(frozen=True)
class OracleCase:
    kind: str  # "general", "symmetric" or "gram"
    rows: list[list[Fraction]]
    matrix: RatMatrix
    max_rank: int  # an upper bound on the rank known from the construction

    @property
    def order(self) -> int:
        return len(self.rows)


def make_case(rng: random.Random, kind: str, order: int) -> OracleCase:
    if kind == "general":
        rows = _random_rows(rng, order, order)
        max_rank = order
    elif kind == "symmetric":
        rows = _random_rows(rng, order, order)
        for i in range(order):
            for j in range(i):
                rows[i][j] = rows[j][i]
        max_rank = order
    else:  # gram: A A' with A of order x (order - 2), so rank <= order - 2
        max_rank = order - 2
        a = _random_rows(rng, order, max_rank)
        rows = [[sum((x * y for x, y in zip(ai, aj)), Fraction(0)) for aj in a] for ai in a]
    return OracleCase(kind, rows, RatMatrix.from_rows(rows), max_rank)


@dataclass(frozen=True)
class OracleOutput:
    rank: int
    det: Fraction
    inv_times_m: Optional[RatMatrix]
    pinv: RatMatrix
    penrose: bool
    inertia: Optional[tuple[int, int, int]]
    solution: Optional[tuple[Fraction, ...]]
    null_basis: list[tuple[Fraction, ...]]


class OracleRandom:
    """Ops that run every generic ``exact_core`` oracle on one random matrix.

    A round is one case of each (kind, order) pair; the input pool holds
    ``rounds`` rounds and ops cycle through it.  A run stops only at the
    end of a round, so every run has the same mix of kinds and orders.
    """

    KINDS = ("general", "symmetric", "gram")

    def __init__(self, orders: list[int], rounds: int):
        self.orders = orders
        self.rounds = rounds
        self.round_size = len(self.KINDS) * len(orders)

    def prepare(self, seed: int) -> list[OracleCase]:
        rng = random.Random(seed)
        return [
            make_case(rng, kind, order)
            for _ in range(self.rounds)
            for order in self.orders
            for kind in self.KINDS
        ]

    def run_op(self, case: OracleCase) -> OracleOutput:
        # oracles are looked up per call, so a traced run reaches the wrappers
        m = case.matrix
        r = exact_core.rank(m)
        det = exact_core.determinant(m)
        inv_times_m = exact_core.inverse(m) @ m if r == case.order else None
        pinv = exact_core.pseudoinverse(m)
        ok = exact_core.penrose_check(m, pinv)
        tri = tuple(exact_core.inertia(m)) if case.kind != "general" else None
        x = exact_core.solve(m, [Fraction(1)] * case.order)
        basis = exact_core.null_space_basis(m)
        return OracleOutput(r, det, inv_times_m, pinv, ok, tri, x, basis)

    def check(self, case: OracleCase, out: OracleOutput) -> list[str]:
        n = case.order
        problems = []
        full = out.rank == n
        if out.rank > case.max_rank:
            problems.append(f"rank {out.rank} exceeds the construction bound {case.max_rank}")
        if (out.det != 0) != full:
            problems.append(f"det = {out.det} but rank = {out.rank} of {n}")
        if full:
            ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            if out.inv_times_m is None or out.inv_times_m.to_lists() != ident:
                problems.append("inverse(m) @ m != I")
        if not out.penrose:
            problems.append("penrose_check(m, pseudoinverse(m)) is false")
        if out.rank + len(out.null_basis) != n:
            problems.append(f"rank {out.rank} + nullity {len(out.null_basis)} != {n}")
        if any(any(_mat_vec(case.rows, v)) for v in out.null_basis):
            problems.append("a null-space basis vector is not annihilated by m")
        if out.inertia is not None:
            i_plus, i_minus, i_zero = out.inertia
            if i_plus + i_minus + i_zero != n or i_plus + i_minus != out.rank:
                problems.append(f"inertia {out.inertia} disagrees with order {n}, rank {out.rank}")
            if case.kind == "gram" and i_minus != 0:
                problems.append(f"inertia {out.inertia} of a Gram matrix has a negative part")
        if out.solution is None:
            if full:
                problems.append("solve(m, e) found no solution for a nonsingular m")
        elif _mat_vec(case.rows, out.solution) != [1] * n:
            problems.append("solve(m, e) returned x with m x != e")
        return problems


def make_workloads(tiny: bool = False) -> dict:
    """The named workloads; ``tiny`` gives the sizes the smoke tests use."""
    if tiny:
        return {
            "verify-odd": HelmCli(["verify", "--n", "7"], [7]),
            "sweep": HelmCli(["sweep", "--min", "4", "--max", "6"], [4, 5, 6]),
            "oracle-random": OracleRandom([6], rounds=2),
        }
    return {
        "verify-odd": HelmCli(["verify", "--n", "21"], [21]),
        "sweep": HelmCli(["sweep", "--min", "4", "--max", "13"], list(range(4, 14))),
        "oracle-random": OracleRandom(list(range(8, 15)), rounds=8),
    }
