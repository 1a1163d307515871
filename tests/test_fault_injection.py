"""Fault injection through the CLI path: every check can fail.

Each test patches one ingredient constructor that ``helmlab.cli``
imports, so that it returns a slightly wrong value, runs
``verify --n N --format json`` or ``eig --matrix M --n N`` and asserts
exactly which checks or identities go red.  The report builds each
ingredient once and hands the same object to every check, so a wrong
ingredient reaches every check that uses it.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from helmlab import RatMatrix, cli, exact_core
from helmlab.circulant import Bordered, Circulant, bordered_circulant, lift
from support import bump_l, outer


def _unit(k):
    return Circulant((1,) + (0,) * (k - 1))


def _ones(k):
    return Circulant((1,) * k)


def _bump_l(case):
    return dataclasses.replace(case, laplacian_like=bump_l(case.laplacian_like))


def _bump_a(case):
    # change only the rim block A; L, and so every check built on L, keeps
    # the true blocks, and only the checks that read A itself see it
    return dataclasses.replace(case, rim_block=case.rim_block + Fraction(1, 3) * _unit(case.n - 1))


def _shift_w(vectors):
    # move 1/4 between two adjacent rim entries: e'w = 1 still holds
    w = list(vectors.w)
    w[1] += Fraction(1, 4)
    w[2] -= Fraction(1, 4)
    return dataclasses.replace(vectors, w=tuple(w))


def _double_alpha(vectors):
    return dataclasses.replace(vectors, alpha=2 * vectors.alpha)


def _bump_d(d):
    # the hub-side rim vertex 1 and its pendant vertex: distance 1 becomes 2
    n = (d.rows + 1) // 2
    rows = d.to_lists()
    rows[1][n] += 1
    rows[n][1] += 1
    return RatMatrix.from_rows(rows)


def _rim_laplacian_in_l(case):
    # L's rim spec plus (2, -1, 0, ..., 0, -1)/3, a third of the rim cycle's
    # Laplacian: L stays symmetric with zero row sums and keeps its
    # bordered shape, so it lifts; A itself is unchanged
    k = case.n - 1
    zero = (0,) * k
    cycle = (2, -1) + zero[3:] + (-1,)
    added = Fraction(1, 3) * bordered_circulant(0, (0, 0), (cycle, zero, zero))
    return dataclasses.replace(case, laplacian_like=case.laplacian_like + added)


def _pendant_two_from_its_rim(d):
    # the pendant-to-own-rim distance q_0 of D's rim-pendant block becomes
    # 2 instead of 1, in both off-diagonal blocks: D keeps its bordered
    # shape, so it lifts
    k = (d.rows - 1) // 2
    zero = (0,) * k
    return d + bordered_circulant(0, (0, 0), (zero, (1,) + zero[1:], zero))


PERTURBATIONS = {
    "L": (("make_even_case", "make_odd_case"), _bump_l),
    "A": (("make_even_case", "make_odd_case"), _bump_a),
    "w": (("make_w_alpha",), _shift_w),
    "alpha": (("make_w_alpha",), _double_alpha),
    "D": (("helm_distance_block",), _bump_d),
    "L rim spec": (("make_even_case", "make_odd_case"), _rim_laplacian_in_l),
    "D q_0": (("helm_distance_block",), _pendant_two_from_its_rim),
}

EXPECTED_FAILURES = {
    # uniqueness recovers (alpha, w) from X e, which L's zero row sums keep
    ("L", 6): {
        "closed_form_inverse",
        "kernel_projector",
        "equiv_formulation",
        "psd_via_schur",
    },
    ("L", 7): {
        "closed_form_mp_inverse",
        "kernel_projector",
        "equiv_formulation",
        "psd_via_schur",
        "rank_of_l",
    },
    # the six conditions and the Schur chain read A; nothing else does
    ("A", 6): {"six_conditions", "psd_via_schur"},
    ("A", 7): {"six_conditions", "psd_via_schur"},
    ("w", 6): {"closed_form_inverse", "kernel_projector", "equiv_formulation", "uniqueness"},
    ("w", 7): {"closed_form_mp_inverse", "kernel_projector", "equiv_formulation", "uniqueness"},
    # alpha enters neither L D nor the projector
    ("alpha", 6): {"closed_form_inverse", "equiv_formulation", "uniqueness"},
    ("alpha", 7): {"closed_form_mp_inverse", "equiv_formulation", "uniqueness"},
    # D stays nonsingular for n = 6 (rank and inertia unchanged), and
    # becomes nonsingular for n = 7
    ("D", 6): {
        "distance_block_vs_bfs",
        "determinant",
        "closed_form_inverse",
        "kernel_projector",
        "equiv_formulation",
    },
    ("D", 7): {
        "distance_block_vs_bfs",
        "determinant",
        "rank",
        "inertia",
        "closed_form_mp_inverse",
        "kernel_projector",
        "equiv_formulation",
        "rank_of_l",
    },
    # the added M = diag(0, C_L/3, 0), C_L the cycle Laplacian, is PSD with
    # L e = M e = 0: X changes, X e = alpha w does not, and M D has the rim
    # rows C_L (D_r, D_r)/3, nonzero (D_r the rim distance circulant, with
    # eigenvalue -2 - 2cos(2 pi j/k) on mode j and C_L 2 - 2cos(2 pi j/k)),
    # so W changes.  The first Schur complement gets C_L/3 in its rim
    # block.  L + M is PSD, so its kernel is the intersection of ker L and
    # ker M: e for even n, as before, while for odd n L's kernel vector
    # (0, v', 0')' is not in ker M (C_L v = 4v), so rank(L) rises by one.  The six conditions
    # read A, which is unchanged
    ("L rim spec", 6): {
        "closed_form_inverse",
        "kernel_projector",
        "equiv_formulation",
        "psd_via_schur",
    },
    ("L rim spec", 7): {
        "closed_form_mp_inverse",
        "kernel_projector",
        "equiv_formulation",
        "psd_via_schur",
        "rank_of_l",
    },
    # on a rim Fourier mode j != 0 the hub decouples and D acts on (rim,
    # pendant) as [[d, d], [d, d - 2]], d = -2 - 2cos(2 pi j/k) the rim
    # distance eigenvalue; q_0 = 2 adds 1 off the diagonal, so the
    # determinant -2d becomes -4d - 1.  For n = 6 every such d is below
    # -1/4: both eigenvalues stay negative, and D stays nonsingular with
    # the same inertia.  For n = 7 the kernel mode j = 3 (d = 0) gets
    # determinant -1, so its zero eigenvalue turns positive: inertia
    # (2, 11, 0), rank 13 = rank(L) + 2.  D w gains (0, e/2, -e/4) and L D
    # gains L's off-diagonal blocks; X, L and A do not see D
    ("D q_0", 6): {
        "distance_block_vs_bfs",
        "determinant",
        "closed_form_inverse",
        "kernel_projector",
        "equiv_formulation",
    },
    ("D q_0", 7): {
        "distance_block_vs_bfs",
        "determinant",
        "rank",
        "inertia",
        "closed_form_mp_inverse",
        "kernel_projector",
        "equiv_formulation",
        "rank_of_l",
    },
}


@pytest.mark.parametrize("ingredient, n", sorted(EXPECTED_FAILURES))
def test_perturbed_ingredient_turns_exactly_its_checks_red(capsys, monkeypatch, ingredient, n):
    constructors, perturb = PERTURBATIONS[ingredient]
    for name in constructors:
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda n, original=original: perturb(original(n)))
    code = cli.main(["verify", "--n", str(n), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not any(c["name"].startswith("setup:") for c in report["checks"])
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == EXPECTED_FAILURES[ingredient, n]


@pytest.mark.parametrize("n", (6, 7))
@pytest.mark.parametrize("ingredient, dense", [("L", True), ("L rim spec", False)])
def test_perturbed_l_takes_the_inertia_route_its_shape_allows(
    capsys, monkeypatch, ingredient, dense, n
):
    # L's inertia is read off its cyclotomic trace forms when L lifts to a
    # bordered element with symmetric blocks, as the on-shape perturbation
    # does, and by the dense congruence when it does not, as the bump on
    # two rim vertices does; either way the same checks go red
    seen = []

    def spying_inertia(m, original=exact_core.inertia):
        seen.append(m.rows)
        return original(m)

    for module in (cli, exact_core):
        monkeypatch.setattr(module, "inertia", spying_inertia)
    constructors, perturb = PERTURBATIONS[ingredient]
    for name in constructors:
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda n, original=original: perturb(original(n)))
    code = cli.main(["verify", "--n", str(n), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert seen == ([2 * n - 1] if dense else [])
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == EXPECTED_FAILURES[ingredient, n]


def test_every_check_moved_out_of_a_constructor_can_fail():
    moved = {
        "closed_form_inverse",
        "closed_form_mp_inverse",
        "kernel_projector",
        "equiv_formulation",
        "rank_of_l",
        "psd_via_schur",
    }
    reachable = set().union(*EXPECTED_FAILURES.values())
    assert moved <= reachable
    # and so is every other check of a passing report
    for n in (6, 7):
        report = cli.run_verification(n)
        assert report.all_passed
        assert {c.name for c in report.checks} <= reachable


def _replace_b(case, block):
    return dataclasses.replace(case, coupling_block=block)


# Three changes of B, each seen by exactly one of B's identities, so none
# of the three follows from the other two.
def _add_j_to_b(case):
    # B + J/(n-1) keeps (B + I) B = 0 and B v = 0: it moves the eigenvalue
    # on e from -1 to 0, which only the trace sees
    k = case.n - 1
    return _replace_b(case, case.coupling_block + Fraction(1, k) * _ones(k))


def _move_b_kernel_to_e(case):
    # J/(n-1) - I has B's spectrum with the zero on e instead of v
    k = case.n - 1
    return _replace_b(case, Fraction(1, k) * _ones(k) - _unit(k))


def _add_nilpotent_to_b(case):
    # x e' with x = e_1 - e_3 squares to 0, has trace 0 and kills v; it
    # is no circulant, so B + x e' is a dense matrix, which the six
    # conditions refuse before any identity is checked
    k = case.n - 1
    x = (1, 0, -1) + (0,) * (k - 3)
    return _replace_b(case, case.coupling_block.dense() + outer(x, (1,) * k))


def _add_circulant_to_b(case):
    # B + G, G the circulant of (0, 1, 2, 1, 0, 1, 2, 1)/4 at n = 9: its
    # eigenvalue sum_m g_m r^(jm) is +2 on e (j = 0), -1 on modes 2 and 6
    # and 0 elsewhere, v's mode 4 included.  So the trace (g_0 = 0) and
    # B v = 0 are unchanged, and B + G has the eigenvalue 1 on e and -2 on
    # modes 2 and 6: (B + I) B = 0 fails, and B S = -S with it, as s_0 = 4
    g = (0, 1, 2, 1, 0, 1, 2, 1)
    return _replace_b(case, case.coupling_block + Fraction(1, 4) * Circulant(g))


def _bump_s(spec):
    # S + I
    return (spec[0] + 1,) + spec[1:]


S_IDENTITY = "S = 2I + C, C the rim cycle's adjacency in build_helm(n)"
A_CONDITIONS = {"B S = -S", "(A + B) S + 2B = 0"}
B_REFUSED = {"setup:six_conditions: raised TypeError: A, B and S must be Circulants"}

EIG_PERTURBATIONS = {
    "A": ("make_odd_case", _bump_a),
    "B+J": ("make_odd_case", _add_j_to_b),
    "B kernel": ("make_odd_case", _move_b_kernel_to_e),
    "B+xe'": ("make_odd_case", _add_nilpotent_to_b),
    "B+G": ("make_odd_case", _add_circulant_to_b),
    "S": ("cycle_signless_laplacian_spec", _bump_s),
}

EIG_FAILURES = {
    ("A", "A"): {"(A + B) S + 2B = 0", "A v = 0"},
    # B's spectrum does not depend on A
    ("A", "B"): set(),
    ("B+J", "B"): {"trace B = 2 - n"},
    ("B+J", "A"): {"trace B = 2 - n"} | A_CONDITIONS,
    ("B kernel", "B"): {"B v = 0"},
    ("B kernel", "A"): {"B v = 0"} | A_CONDITIONS,
    ("B+xe'", "B"): B_REFUSED,
    ("B+xe'", "A"): B_REFUSED,
    ("B+G", "B"): {"(B + I) B = 0"},
    ("B+G", "A"): {"(B + I) B = 0"} | A_CONDITIONS,
    ("S", "S"): {S_IDENTITY},
    ("S", "A"): {S_IDENTITY} | A_CONDITIONS,
}


@pytest.mark.parametrize("block, matrix", sorted(EIG_FAILURES))
def test_perturbed_block_fails_exactly_its_spectrum_identities(
    capsys, monkeypatch, block, matrix
):
    name, perturb = EIG_PERTURBATIONS[block]
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda arg: perturb(original(arg)))
    code = cli.main(["eig", "--matrix", matrix, "--n", "9"])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    failed = {line[len("[FAIL] "):] for line in lines if line.startswith("[FAIL] ")}
    assert failed == EIG_FAILURES[block, matrix]
    assert code == (1 if failed else 0)
    assert lines[-1] == ("result: FAILED" if failed else "result: OK")


# Which route the perturbed ingredients take through the circulant block
# identities.  A, B and S are held as circulants: a perturbation that keeps
# that form is checked on specs, and one that breaks it (B + xe') is a
# dense matrix, which the six conditions refuse.  L and D are dense, and
# the checks that multiply them lift them to bordered elements
# (circulant.lift): a perturbation that keeps that form lifts and is
# checked on specs, one that breaks it stays dense.  Both routes must turn
# exactly the checks above red.
SPEC_ROUTE = {
    "L": False,
    "D": False,
    "B+xe'": False,
    "A": True,
    "L rim spec": True,
    "D q_0": True,
    "B+J": True,
    "B kernel": True,
    "B+G": True,
    "S": True,
}

CASE_FORMS = (("laplacian_like", Bordered), ("rim_block", Circulant), ("coupling_block", Circulant))


def _perturbed_operands(name, n):
    """(form, value) for each perturbed ingredient, with the form its checks need."""
    if name == "S":
        return [(Circulant, Circulant(_bump_s(cli.cycle_signless_laplacian_spec(n - 1))))]
    if name in ("D", "D q_0"):
        return [(Bordered, PERTURBATIONS[name][1](cli.helm_distance_block(n)))]
    perturb = PERTURBATIONS[name][1] if name in PERTURBATIONS else EIG_PERTURBATIONS[name][1]
    base = cli.make_odd_case(n)
    case = perturb(base)
    return [(form, getattr(case, f)) for f, form in CASE_FORMS if getattr(case, f) != getattr(base, f)]


@pytest.mark.parametrize("name, lifts", sorted(SPEC_ROUTE.items()))
def test_perturbations_take_the_route_their_shape_allows(name, lifts):
    [(form, m)] = _perturbed_operands(name, 9)  # each perturbation changes one ingredient
    if form is Circulant:
        assert isinstance(m, Circulant) == lifts
        return
    lifted = lift(m)
    assert (lifted is not None) == lifts
    if lifts:
        assert lifted.dense() == m
