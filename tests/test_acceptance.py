"""Acceptance suite: the full set of exact claims, one criterion per test.

Every criterion prints a single PASS/FAIL line.  Every claim is exact
rational equality, with no tolerance: the spectra of criterion 8 are
proved by the exact identities ``helmlab eig`` checks.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

from helmlab import (
    Decomposition,
    InertiaTriple,
    RatMatrix,
    bfs_distance_matrix,
    build_helm,
    build_kernel_projector,
    check_conditions_i_vi,
    check_uniqueness,
    circulant_product,
    cli,
    closed_form_inverse,
    closed_form_mp_inverse,
    cycle_signless_laplacian_spec,
    determinant,
    helm_distance_block,
    inertia,
    materialize,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    penrose_check,
    pseudoinverse,
    rank,
    rank_l_check,
    schur_psd_check,
)
from helmlab.circulant import Circulant, lift
from support import (
    helm_decomposition,
    make_rng,
    random_delta_vector,
    random_fraction,
    random_invertible,
    random_symmetric,
)

EVEN_NS = (4, 6, 8, 10, 12)
ODD_NS = (5, 7, 9, 11, 13)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_inverse_reproduction_even():
    with criterion(1, "closed-form inverse reproduces I exactly, even n"):
        for n in EVEN_NS:
            d = helm_distance_block(n)
            assert closed_form_inverse(helm_decomposition(n)) @ d == RatMatrix.identity(2 * n - 1)


def test_criterion_2_mp_inverse_reproduction_odd():
    with criterion(2, "closed-form MP inverse: Penrose + Moore-Penrose oracle, odd n"):
        for n in ODD_NS:
            d = helm_distance_block(n)
            x = closed_form_mp_inverse(helm_decomposition(n))
            assert penrose_check(d, x)
            assert x == pseudoinverse(d)


def test_criterion_3_determinants():
    with criterion(3, "det(D) = 3(n-1)2^(n-1) even / 0 odd"):
        for n in EVEN_NS:
            assert determinant(helm_distance_block(n)) == 3 * (n - 1) * 2 ** (n - 1)
        for n in ODD_NS:
            assert determinant(helm_distance_block(n)) == 0


def test_criterion_4_rank_and_inertia():
    with criterion(4, "rank and inertia of D for n = 4..13"):
        for n in range(4, 14):
            d = helm_distance_block(n)
            if n % 2 == 0:
                assert rank(d) == 2 * n - 1
                assert inertia(d) == InertiaTriple(1, 2 * n - 2, 0)
            else:
                assert rank(d) == 2 * n - 2
                assert inertia(d) == InertiaTriple(1, 2 * n - 3, 1)


def test_criterion_5_l_is_psd_of_rank_2n_minus_3():
    with criterion(5, "inertia(L) = (2n-3, 0, 2) for odd n"):
        for n in ODD_NS:
            case = make_odd_case(n)
            lap = case.laplacian_like
            assert inertia(lap) == InertiaTriple(2 * n - 3, 0, 2)
            assert schur_psd_check(lift(lap), case)
            d = helm_distance_block(n)
            assert rank_l_check(rank(d), rank(lap)) == 2 * n - 3


def test_criterion_6_characterization_suite():
    with criterion(6, "six conditions, projector identities, uniqueness recovery"):
        for n in range(4, 14):
            even = n % 2 == 0
            k = n - 1
            d = helm_distance_block(n)
            vectors = make_w_alpha(n)
            case = make_even_case(n) if even else make_odd_case(n)
            unit = Circulant((1,) + (0,) * (k - 1))
            coupling = -unit if even else case.coupling_block
            s = Circulant(cycle_signless_laplacian_spec(k))
            assert all(check_conditions_i_vi(case.rim_block, coupling, s))

            projector = build_kernel_projector(case).dense()
            assert projector.is_zero() == even
            assert (d @ projector).is_zero()
            assert (projector @ case.laplacian_like).is_zero()
            assert all(x == 0 for x in projector.mul_vector(vectors.w))

            dec = Decomposition(case.laplacian_like, vectors.w, vectors.alpha)
            alpha, w = check_uniqueness(dec.candidate, dec)
            assert alpha == Fraction(4, 3 * (n - 1))
            expected_w = (
                (Fraction(5 - n, 4),) + (Fraction(-1, 4),) * k + (Fraction(1, 2),) * k
            )
            assert w == expected_w


def test_criterion_7_oracle_cross_checks():
    with criterion(7, "block formula = BFS; circulant product = dense product"):
        for n in range(4, 14):
            assert helm_distance_block(n) == bfs_distance_matrix(build_helm(n))
        rng = make_rng()
        for _ in range(200):
            k = rng.randint(1, 8)
            a = tuple(random_fraction(rng) for _ in range(k))
            b = tuple(random_fraction(rng) for _ in range(k))
            prod = circulant_product(a, b)
            assert materialize(prod) == materialize(a) @ materialize(b)
            assert prod == circulant_product(b, a)


def test_criterion_8_spectra():
    with criterion(8, "eig proves the S, B and A spectra exactly; coupling block rationally"):
        with contextlib.redirect_stdout(io.StringIO()):
            for n in range(4, cli.MAX_N + 1):
                assert cli.main(["eig", "--matrix", "S", "--n", str(n)]) == 0
            for n in range(5, 42, 2):
                for name in ("B", "A"):
                    assert cli.main(["eig", "--matrix", name, "--n", str(n)]) == 0
        for n in ODD_NS:
            k = n - 1
            b = make_odd_case(n).coupling_block.dense()
            assert b @ b == -b
            assert rank(b) == n - 2
            shifted = b - Fraction(1, 2 * (n - 1)) * RatMatrix.from_rows([[1] * k] * k)
            ident = RatMatrix.identity(k)
            poly = shifted @ (shifted + ident) @ (shifted + Fraction(3, 2) * ident)
            assert poly.is_zero()


def test_criterion_9_property_suite():
    with criterion(9, "100 Penrose, 100 congruence, 100 delta-closure random checks"):
        rng = make_rng()
        for _ in range(100):
            m = random_symmetric(rng, rng.randint(1, 6))
            assert penrose_check(m, pseudoinverse(m))
        for _ in range(100):
            order = rng.randint(1, 5)
            m = random_symmetric(rng, order)
            p = random_invertible(rng, order)
            assert inertia(p.transpose() @ m @ p) == inertia(m)
        for _ in range(100):
            k = rng.randint(4, 10)
            z = random_delta_vector(rng, k)
            g_row = (
                [random_fraction(rng), random_fraction(rng)]
                + [Fraction(0)] * (k - 3)
            )
            g_row.append(g_row[1])
            assert materialize(circulant_product(z, tuple(g_row))).is_symmetric()
