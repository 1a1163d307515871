"""Closed-form ingredients and the inverse / Moore-Penrose formulas."""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from helmlab import (
    RatMatrix,
    alternating_signs,
    build_kernel_projector,
    circulant_product,
    closed_form_inverse,
    closed_form_mp_inverse,
    cycle_signless_laplacian_spec,
    helm_distance_block,
    inverse,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    materialize,
    null_space_basis,
    penrose_check,
    pseudoinverse,
    rank,
    rank_one_scale,
)
from helmlab.circulant import Circulant
from support import from_blocks, helm_decomposition, outer

ODD_RANGE = (5, 7, 9, 11, 13)
EVEN_RANGE = (4, 6, 8, 10, 12)


# -- w and alpha ---------------------------------------------------------------


def test_w_alpha_values_at_n7():
    v = make_w_alpha(7)
    assert v.alpha == Fraction(2, 9)
    expected = (
        (Fraction(-1, 2),)
        + (Fraction(-1, 4),) * 6
        + (Fraction(1, 2),) * 6
    )
    assert v.w == expected


@pytest.mark.parametrize("n", range(4, 14))
def test_w_sums_to_one_and_solves_the_system(n):
    v = make_w_alpha(n)
    assert sum(v.w, Fraction(0)) == 1
    d = helm_distance_block(n)
    rhs = (Fraction(3 * (n - 1), 4),) * (2 * n - 1)
    assert d.mul_vector(v.w) == rhs


@pytest.mark.parametrize("n", range(4, 14))
def test_closed_form_kernel_spans_the_kernel_of_d(n):
    # (0, v', 0')' for odd n and no vector for even n: as many vectors as
    # the eliminated kernel basis, spanning the same row space
    kernel = make_w_alpha(n).kernel
    basis = null_space_basis(helm_distance_block(n))
    assert len(kernel) == len(basis) == n % 2
    if basis:
        assert rank(RatMatrix.from_rows(list(kernel) + basis)) == len(basis)


def test_alpha_formula_small_cases():
    assert make_w_alpha(5).alpha == Fraction(1, 3)
    assert make_w_alpha(6).alpha == Fraction(4, 15)
    assert rank_one_scale(13) == Fraction(1, 9)


def test_make_w_alpha_rejects_small_n():
    with pytest.raises(ValueError, match="need n >= 4, got 3"):
        make_w_alpha(3)


# -- odd-case ingredients --------------------------------------------------------


def test_odd_case_n5_values():
    data = make_odd_case(5)
    assert data.rim_block.spec == tuple(Fraction(v, 24) for v in (33, 9, -15, 9))
    assert data.coupling_block.spec == tuple(Fraction(v, 4) for v in (-3, -1, 1, -1))
    assert sum(data.coupling_block.spec, Fraction(0)) == -1


@pytest.mark.parametrize("n", (5, 7, 9, 11, 13, 15))
def test_rim_spec_sums_to_three_halves(n):
    assert sum(make_odd_case(n).rim_block.spec, Fraction(0)) == Fraction(3, 2)


@pytest.mark.parametrize("n", (5, 7, 9, 11, 13, 15))
def test_row_sums_of_odd_blocks(n):
    # A J = (3/2) J and B J = -J, J the all-ones circulant, say A e = (3/2) e and B e = -e
    data = make_odd_case(n)
    ones = Circulant((1,) * (n - 1))
    assert data.rim_block @ ones == Fraction(3, 2) * ones
    assert data.coupling_block @ ones == -ones


def test_coupling_spec_tail_alternates():
    data = make_odd_case(11)
    n = 11
    assert data.coupling_block.spec[0] == Fraction(2 - n, n - 1)
    tail = data.coupling_block.spec[1:]
    assert tail == tuple(Fraction((-1) ** i, n - 1) for i in range(1, n - 1))
    assert tail[-1] == Fraction(-1, n - 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_alternating_sum_identities(m):
    s0 = sum((-1) ** (k + 1) for k in range(1, m))
    s1 = sum((-1) ** (k + 1) * k for k in range(1, m))
    s2 = sum((-1) ** (k + 1) * k * k for k in range(1, m))
    if m % 2 == 0:
        assert s0 == 1
        assert 2 * s1 == m
        assert 2 * s2 == m * (m - 1)
    else:
        assert s0 == 0
        assert 2 * s1 == 1 - m
        assert 2 * s2 == -m * (m - 1)


@pytest.mark.parametrize("n", ODD_RANGE)
def test_rim_spec_orthogonal_to_alternating_vector(n):
    data = make_odd_case(n)
    v = alternating_signs(n - 1)
    assert sum(map(mul, data.rim_block.spec, v)) == 0
    assert all(x == 0 for x in data.rim_block.dense().mul_vector(v))


@pytest.mark.parametrize("n", ODD_RANGE)
def test_coupling_block_algebra(n):
    data = make_odd_case(n)
    b = data.coupling_block
    k = n - 1
    assert b @ b == -b
    assert rank(b.dense()) == n - 2
    assert all(x == 0 for x in b.dense().mul_vector(alternating_signs(k)))


@pytest.mark.parametrize("n", ODD_RANGE)
def test_block_identities_with_signless_laplacian(n):
    data = make_odd_case(n)
    a, b = data.rim_block, data.coupling_block
    k = n - 1
    s = Circulant(cycle_signless_laplacian_spec(k))
    ident = Circulant((1,) + (0,) * (k - 1))
    assert b @ s == -s
    assert ((b + ident) @ a).is_zero()
    assert ((b + ident) @ b).is_zero()
    assert ((a + b) @ s + 2 * b).is_zero()
    # combining the last two pairs: (A - I) S = -2 B
    assert (a - ident) @ s == -2 * b


def test_make_odd_case_rejects_bad_n():
    with pytest.raises(ValueError, match="odd n required, got 6"):
        make_odd_case(6)
    with pytest.raises(ValueError, match="odd case needs n >= 5, got 3"):
        make_odd_case(3)


# -- even-case ingredients ---------------------------------------------------------


def test_even_case_n6_values():
    data = make_even_case(6)
    assert data.rim_block.spec == tuple(Fraction(v, 2) for v in (7, -3, 1, 1, -3))
    assert sum(data.rim_block.spec, Fraction(0)) == Fraction(3, 2)


def test_even_rim_spec_times_s_n6():
    data = make_even_case(6)
    s = materialize(cycle_signless_laplacian_spec(5))
    product = tuple(sum(map(mul, data.rim_block.spec, s.transpose().row(j))) for j in range(5))
    assert product == (4, 1, 0, 0, 1)


@pytest.mark.parametrize("n", EVEN_RANGE)
def test_even_rim_spec_times_s_is_s_plus_two_e1(n):
    data = make_even_case(n)
    s_spec = cycle_signless_laplacian_spec(n - 1)
    product = circulant_product(data.rim_block.spec, s_spec)
    expected = (s_spec[0] + 2,) + s_spec[1:]
    assert product == expected
    # same fact as a dense identity: (A - I) S = 2 I
    a = data.rim_block.dense()
    k = n - 1
    s = materialize(s_spec)
    assert (a - RatMatrix.identity(k)) @ s == 2 * RatMatrix.identity(k)


@pytest.mark.parametrize("n", EVEN_RANGE)
def test_even_laplacian_like_has_zero_row_sums(n):
    data = make_even_case(n)
    assert not any(data.laplacian_like.mul_vector((1,) * (2 * n - 1)))
    assert data.laplacian_like.is_symmetric()


def test_make_even_case_rejects_bad_n():
    with pytest.raises(ValueError, match="even n required, got 7"):
        make_even_case(7)
    with pytest.raises(ValueError, match="need n >= 4, got 2"):
        make_even_case(2)


# -- bordered matrices -------------------------------------------------------------


@pytest.mark.parametrize("n", ODD_RANGE)
def test_odd_laplacian_like_structure(n):
    lap = make_odd_case(n).laplacian_like
    assert lap.rows == 2 * n - 1
    assert lap.is_symmetric()
    assert not any(lap.mul_vector((1,) * lap.cols))
    assert lap[0, 0] == Fraction(n - 1, 2)
    assert lap[0, 1] == Fraction(-1, 2)
    assert lap[0, n] == 0
    # trailing pendant block is the identity
    for i in range(n, 2 * n - 1):
        assert lap[i, i] == 1


def _paper_specs(n):
    """The paper's rim and coupling specs of L for n, entry by entry in
    plain Fractions; entry j >= 1 of a rim spec is its coefficient of
    index min(j, k - j)."""
    k = n - 1
    if n % 2:
        m = k // 2
        a = [None] + [(-1) ** (j + 1) * (2 * m * m - 6 * (m - j) ** 2 + 7) for j in range(1, m + 1)]
        rim = [Fraction(n * n + 4 * n - 12, 6 * k)] + [Fraction(a[min(j, k - j)], 6 * k) for j in range(1, k)]
        coupling = [Fraction((-1) ** j, k) - (j == 0) for j in range(k)]
    else:
        b = [None] + [(-1) ** j * (k - 2 * j) for j in range(1, n // 2)]
        rim = [Fraction(n + 1, 2)] + [Fraction(b[min(j, k - j)], 2) for j in range(1, k)]
        coupling = [-Fraction(j == 0) for j in range(k)]
    return tuple(rim), tuple(coupling)


@pytest.mark.parametrize("n", range(4, 131))
def test_integer_built_case_has_the_papers_specs(n):
    case = make_odd_case(n) if n % 2 else make_even_case(n)
    rim, coupling = _paper_specs(n)
    assert case.n == n
    assert case.rim_block.spec == rim
    assert case.coupling_block.spec == coupling
    assert (case.rim_block, case.coupling_block) == (Circulant(rim), Circulant(coupling))


@pytest.mark.parametrize("n", (*range(4, 14), 60, 61, 129, 130))
def test_integer_built_l_and_v_are_their_fraction_layouts(n):
    # L = [[k/2, -e'/2, 0], [-e/2, A, B], [0, B, I]] and V = 2(B + I) on
    # the rim, laid out in plain Fractions from the paper's specs
    k = n - 1
    case = make_odd_case(n) if n % 2 else make_even_case(n)
    rim, coupling = _paper_specs(n)
    a, b = materialize(rim), materialize(coupling)
    e_row, zero_row = RatMatrix.from_rows([[1] * k]), RatMatrix.zeros(1, k)
    ident, zero = RatMatrix.identity(k), RatMatrix.zeros(k, k)
    half = Fraction(-1, 2)
    lap = from_blocks(
        [
            [Fraction(k, 2), half * e_row, zero_row],
            [half * e_row.transpose(), a, b],
            [zero_row.transpose(), b, ident],
        ]
    )
    assert case.laplacian_like == lap
    v = from_blocks(
        [
            [0, zero_row, zero_row],
            [zero_row.transpose(), 2 * (b + ident), zero],
            [zero_row.transpose(), zero, zero],
        ]
    )
    assert build_kernel_projector(case) == v


# -- the closed forms ----------------------------------------------------------------


@pytest.mark.parametrize("n", (4, 6))
def test_closed_form_inverse_times_d_is_identity(n):
    d = helm_distance_block(n)
    assert closed_form_inverse(helm_decomposition(n)) @ d == RatMatrix.identity(2 * n - 1)


def test_closed_form_inverse_equals_elimination_inverse():
    assert closed_form_inverse(helm_decomposition(6)) == inverse(helm_distance_block(6))


def test_closed_form_inverse_laplacian_part_has_zero_row_sums():
    n = 8
    x = closed_form_inverse(helm_decomposition(n))
    vectors = make_w_alpha(n)
    lap_part = -2 * (x - vectors.alpha * outer(vectors.w, vectors.w))
    assert not any(lap_part.mul_vector((1,) * lap_part.cols))


def test_closed_form_inverse_rejects_odd():
    with pytest.raises(ValueError, match="even n required, got 7"):
        closed_form_inverse(helm_decomposition(7))


@pytest.mark.parametrize("n", (5, 7))
def test_closed_form_mp_inverse_penrose_and_oracle(n):
    d = helm_distance_block(n)
    x = closed_form_mp_inverse(helm_decomposition(n))
    assert penrose_check(d, x)
    assert x == pseudoinverse(d)


@pytest.mark.parametrize("n", ODD_RANGE)
def test_mp_inverse_maps_ones_to_alpha_w(n):
    x = closed_form_mp_inverse(helm_decomposition(n))
    vectors = make_w_alpha(n)
    assert x.mul_vector((Fraction(1),) * (2 * n - 1)) == tuple([vectors.alpha * v for v in vectors.w])


def test_closed_form_mp_inverse_rejects_even():
    with pytest.raises(ValueError, match="odd n required, got 8"):
        closed_form_mp_inverse(helm_decomposition(8))


def _floats(m: RatMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m.to_lists()])


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
def test_closed_forms_agree_with_numpy_in_floating_point(n):
    # a witness from an independent float library, not a gate: the exact
    # checks above decide; this only shows the same matrices in floats
    d = _floats(helm_distance_block(n))
    if n % 2 == 0:
        x, reference = closed_form_inverse(helm_decomposition(n)), np.linalg.inv(d)
    else:
        x, reference = closed_form_mp_inverse(helm_decomposition(n)), np.linalg.pinv(d)
    assert np.max(np.abs(_floats(x) - reference)) < 1e-9


# -- the rim spec times S row ---------------------------------------------------------
# for odd n, x'S = (4n-6, n+1, -2, 2, ..., 2, -2, n+1)/(n-1) and x'S + 2y' = s',
# with x, y the rim and coupling specs and s the spec of S


def _expected_rim_signless(n: int) -> tuple[Fraction, ...]:
    m = (n - 1) // 2
    k = n - 1
    vals = [Fraction(4 * n - 6), Fraction(n + 1)]
    for p in range(3, m + 2):
        vals.append(Fraction((-1) ** p * 2))
    while len(vals) < k:
        vals.append(vals[k - len(vals)])
    return tuple(v / (n - 1) for v in vals)


def test_rim_signless_product_n7_value():
    x, s = make_odd_case(7).rim_block.spec, cycle_signless_laplacian_spec(6)
    assert circulant_product(x, s) == tuple(Fraction(v, 6) for v in (22, 8, -2, 2, -2, 8))


@pytest.mark.parametrize("n", ODD_RANGE)
def test_rim_signless_product_pattern_and_delta(n):
    x, s = make_odd_case(n).rim_block.spec, cycle_signless_laplacian_spec(n - 1)
    row = circulant_product(x, s)
    assert row == _expected_rim_signless(n)
    assert materialize(row).is_symmetric()


@pytest.mark.parametrize("n", ODD_RANGE)
def test_rim_signless_product_balances_coupling(n):
    data = make_odd_case(n)
    s_spec = cycle_signless_laplacian_spec(n - 1)
    row = circulant_product(data.rim_block.spec, s_spec)
    combined = tuple(r + 2 * y for r, y in zip(row, data.coupling_block.spec))
    assert combined == s_spec
