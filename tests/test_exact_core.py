"""Exact linear algebra oracles: examples and algebraic invariants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helmlab import (
    Decomposition,
    InertiaTriple,
    RatMatrix,
    determinant,
    helm_distance_block,
    inertia,
    inverse,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    materialize,
    null_space_basis,
    penrose_check,
    pseudoinverse,
    rank,
    solve,
    cycle_signless_laplacian_spec,
)
from helmlab import exact_core
from helmlab.exact_core import rref
from support import (
    from_blocks,
    outer,
    random_fraction,
    random_invertible,
    random_matrix,
    random_symmetric,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, max_order: int = 4, square: bool = False):
    rows = draw(st.integers(1, max_order))
    cols = rows if square else draw(st.integers(1, max_order))
    entries = draw(st.lists(small_fractions, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, entries)


@st.composite
def symmetric_matrices(draw, max_order: int = 5):
    order = draw(st.integers(1, max_order))
    vals = [[Fraction(0)] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            vals[i][j] = vals[j][i] = draw(small_fractions)
    return RatMatrix.from_rows(vals)


# -- rank / determinant / inverse ------------------------------------------


def test_rank_identity_and_ones():
    assert rank(RatMatrix.identity(3)) == 3
    assert rank(RatMatrix.from_rows([[1] * 4] * 4)) == 1


def test_rank_of_odd_helm_distance_matrix():
    assert rank(helm_distance_block(7)) == 12


def test_determinant_trivial():
    assert determinant(RatMatrix.identity(4)) == 1


def test_determinant_of_helm_distance_matrices():
    assert determinant(helm_distance_block(6)) == 480
    assert determinant(helm_distance_block(7)) == 0


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError, match="determinant of 2x3"):
        determinant(RatMatrix.zeros(2, 3))


def test_inverse_trivial():
    assert inverse(RatMatrix.identity(5)) == RatMatrix.identity(5)
    half = inverse(2 * RatMatrix.identity(3))
    assert half == Fraction(1, 2) * RatMatrix.identity(3)


def test_inverse_of_even_helm_distance_matrix():
    d = helm_distance_block(6)
    assert inverse(d) @ d == RatMatrix.identity(11)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        inverse(RatMatrix.from_rows([[1] * 3] * 3))
    with pytest.raises(ValueError, match="inverse of 2x3"):
        inverse(RatMatrix.from_rows([[1] * 3] * 2))


def test_solve_consistent_and_inconsistent():
    m = RatMatrix.from_rows([[1, 1], [2, 2]])
    assert solve(m, (Fraction(3), Fraction(6))) is not None
    assert solve(m, (Fraction(3), Fraction(7))) is None


# -- pseudoinverse ----------------------------------------------------------


def test_pseudoinverse_trivial_cases():
    zero = RatMatrix.zeros(3, 3)
    assert pseudoinverse(zero) == zero
    assert pseudoinverse(RatMatrix.identity(5)) == RatMatrix.identity(5)


def test_pseudoinverse_zero_matrix_transposes_shape():
    assert pseudoinverse(RatMatrix.zeros(2, 5)) == RatMatrix.zeros(5, 2)


def test_pseudoinverse_of_singular_helm_matrix_has_closed_form():
    # the Gauss-Jordan oracle must reproduce -L/2 + (1/3) ww' at n = 5
    n = 5
    data = make_odd_case(n)
    vectors = make_w_alpha(n)
    assert vectors.alpha == Fraction(1, 3)
    formula = Fraction(-1, 2) * data.laplacian_like + vectors.alpha * outer(vectors.w, vectors.w)
    assert pseudoinverse(helm_distance_block(n)) == formula


def test_pseudoinverse_eliminates_its_argument_once(monkeypatch):
    # one pass over [A | dI] of order 13 and nothing else: the projections
    # off the kernels of D and D' are rank-one updates, so no Gram matrix
    # is inverted, and neither inverse, rref nor a product is called
    shapes = []
    echelon = exact_core._echelon_ints

    def counting(rows, ncols):
        shapes.append((len(rows), ncols))
        return echelon(rows, ncols)

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(exact_core, "_echelon_ints", counting)
    monkeypatch.setattr(exact_core, "rref", refuse("rref"))
    monkeypatch.setattr(exact_core, "inverse", refuse("inverse"))
    monkeypatch.setattr(RatMatrix, "__matmul__", refuse("matmul"))
    pseudoinverse(helm_distance_block(7))
    assert shapes == [(13, 13)]


def test_penrose_check_examples():
    ident = RatMatrix.identity(3)
    assert penrose_check(ident, ident)
    d7 = helm_distance_block(7)
    assert not penrose_check(d7, d7)


def test_penrose_check_rejects_bad_shape():
    ones = RatMatrix.from_rows([[1] * 3] * 2)
    with pytest.raises(ValueError, match="candidate must be 3x2"):
        penrose_check(ones, ones)


def test_penrose_check_rejects_a_candidate_failing_only_the_fourth_condition():
    # MXM = M, XMX = X and MX symmetric, but XM = [[1, 0], [2, 0]] is not;
    # the second m is symmetric, so only x's asymmetry keeps XM in play
    for m in (RatMatrix.from_rows([[1, 0]]), RatMatrix.from_rows([[1, 0], [0, 0]])):
        x = RatMatrix.from_rows([[1, 0], [2, 0]]).submatrix(range(2), range(m.rows))
        assert not penrose_check(m, x)


def test_penrose_check_skips_xm_only_when_both_are_symmetric(monkeypatch):
    products = []
    matmul = RatMatrix.__matmul__

    def counting(a, b):
        products.append((a.rows, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    d = helm_distance_block(7)
    x = pseudoinverse(d)
    products.clear()
    assert penrose_check(d, x)
    assert len(products) == 3
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    products.clear()
    assert penrose_check(m, inverse(m))
    assert len(products) == 4


@given(matrices())
def test_pseudoinverse_satisfies_penrose_conditions(m):
    assert penrose_check(m, pseudoinverse(m))


@given(matrices(square=True))
def test_pseudoinverse_equals_inverse_when_nonsingular(m):
    assume(determinant(m) != 0)
    assert pseudoinverse(m) == inverse(m)


@given(symmetric_matrices())
def test_pseudoinverse_is_involution_on_symmetric(m):
    assert pseudoinverse(pseudoinverse(m)) == m


# -- inertia ----------------------------------------------------------------


def test_inertia_diagonal_example():
    assert inertia(RatMatrix.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 0]])) == InertiaTriple(1, 1, 1)


def test_inertia_of_helm_distance_matrices():
    assert inertia(helm_distance_block(6)) == InertiaTriple(1, 10, 0)
    assert inertia(helm_distance_block(7)) == InertiaTriple(1, 11, 1)


def test_inertia_requires_symmetry():
    with pytest.raises(ValueError, match="inertia requires a symmetric"):
        inertia(RatMatrix.from_rows([[0, 1], [2, 0]]))


def test_inertia_of_zero_diagonal_hyperbolic_block():
    # all-zero diagonal exercises the 2x2 pivot path
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert inertia(m) == InertiaTriple(1, 1, 0)


def _char_poly_coeffs(m: RatMatrix) -> list[Fraction]:
    """Coefficients of det(tI - M), highest power first (Faddeev-LeVerrier)."""
    n = m.rows
    coeffs = [Fraction(1)]
    current = m
    for k in range(1, n + 1):
        ck = -sum((current[i, i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        if k < n:
            current = m @ (current + ck * RatMatrix.identity(n))
    return coeffs


def _inertia_by_sign_variations(m: RatMatrix) -> InertiaTriple:
    """Independent inertia oracle: a symmetric matrix has an all-real-root
    characteristic polynomial, so the positive-eigenvalue count equals the
    exact number of sign variations in the nonzero coefficients."""
    coeffs = _char_poly_coeffs(m)
    i_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        i_zero += 1
    degree = len(coeffs) - 1
    nonzero = [c for c in coeffs if c != 0]
    i_plus = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))
    return InertiaTriple(i_plus, degree - i_plus, i_zero)


def test_sign_variation_oracle_on_diagonal_case():
    m = RatMatrix.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert _inertia_by_sign_variations(m) == InertiaTriple(1, 1, 1)


@pytest.mark.parametrize("n", (6, 7))
def test_inertia_matches_sign_variation_oracle_on_helm(n):
    d = helm_distance_block(n)
    assert inertia(d) == _inertia_by_sign_variations(d)


@given(symmetric_matrices())
def test_inertia_matches_sign_variation_oracle(m):
    assert inertia(m) == _inertia_by_sign_variations(m)


@given(symmetric_matrices())
def test_inertia_counts_sum_to_order_and_rank(m):
    tri = inertia(m)
    assert tri.i_plus + tri.i_minus + tri.i_zero == m.rows
    assert tri.i_plus + tri.i_minus == rank(m)


@st.composite
def congruence_pairs(draw, max_order: int = 4):
    m = draw(symmetric_matrices(max_order=max_order))
    n = m.rows
    entries = draw(st.lists(small_fractions, min_size=n * n, max_size=n * n))
    return m, RatMatrix(n, n, entries)


@given(congruence_pairs())
def test_inertia_invariant_under_congruence(pair):
    m, p = pair
    assume(determinant(p) != 0)
    assert inertia(p.transpose() @ m @ p) == inertia(m)


def test_inertia_congruence_seeded_sweep(rng):
    for _ in range(25):
        order = rng.randint(1, 5)
        m = random_symmetric(rng, order)
        p = random_invertible(rng, order)
        assert inertia(p.transpose() @ m @ p) == inertia(m)


# -- null space -------------------------------------------------------------


def test_null_space_trivial():
    assert null_space_basis(RatMatrix.identity(3)) == []


def test_null_space_of_odd_helm_distance_matrix():
    basis = null_space_basis(helm_distance_block(7))
    assert len(basis) == 1
    vec = basis[0]
    # proportional to (0, v', 0')' with v alternating around the rim
    scale = vec[1]
    assert scale != 0
    expected = (
        (Fraction(0),)
        + tuple(scale * (-1) ** i for i in range(6))
        + (Fraction(0),) * 6
    )
    assert vec == expected


def test_null_space_of_rim_signless_laplacian_odd():
    s = materialize(cycle_signless_laplacian_spec(6))
    basis = null_space_basis(s)
    assert len(basis) == 1
    scale = basis[0][0]
    assert basis[0] == tuple(scale * (-1) ** i for i in range(6))


@given(matrices())
def test_null_space_vectors_are_annihilated(m):
    for v in null_space_basis(m):
        assert all(x == 0 for x in m.mul_vector(v))
    assert rank(m) + len(null_space_basis(m)) == m.cols


# -- decomposition type -------------------------------------------------------


def _valid_decomposition():
    n = 7
    data = make_odd_case(n)
    vectors = make_w_alpha(n)
    return data.laplacian_like, vectors.w, vectors.alpha


def test_decomposition_accepts_the_helm_triple():
    lap, w, alpha = _valid_decomposition()
    dec = Decomposition(lap, w, alpha)
    assert dec.candidate.is_symmetric()


def test_decomposition_rejects_flipped_w():
    lap, w, alpha = _valid_decomposition()
    with pytest.raises(ValueError, match="e'w = 1"):
        Decomposition(lap, tuple(-x for x in w), alpha)


def test_decomposition_rejects_zero_alpha():
    lap, w, _ = _valid_decomposition()
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        Decomposition(lap, w, Fraction(0))


def test_decomposition_rejects_nonzero_row_sums():
    _, w, alpha = _valid_decomposition()
    with pytest.raises(ValueError, match="zero row sums"):
        Decomposition(RatMatrix.identity(13), w, alpha)


# -- matrix plumbing ----------------------------------------------------------


def test_from_blocks_assembles_in_order():
    # the tests' block layout, the reference for the bordered shape, read
    # against a literal
    e_row = RatMatrix.from_rows([[1, 1]])
    a = from_blocks([[1, e_row], [RatMatrix.zeros(2, 1), RatMatrix.identity(2)]])
    assert a == RatMatrix.from_rows([[1, 1, 1], [0, 1, 0], [0, 0, 1]])


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        RatMatrix.from_rows([[1, 2], [3]])


def test_row_rejects_out_of_range_indices():
    m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == (Fraction(4), Fraction(5), Fraction(6))
    for bad in (-1, 2):
        with pytest.raises(IndexError):
            m.row(bad)
    square = RatMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        square.row(2)


def test_submatrix_rejects_out_of_range_indices():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.submatrix([1, 0], [1]) == RatMatrix.from_rows([[4], [2]])
    assert m.submatrix([], [0]) == RatMatrix.zeros(0, 1)
    # an unchecked flat index would read [[3]] for column 2 and [[4]] for -1
    for rows, cols in (([0], [2]), ([0], [-1]), ([2], [0]), ([-1], [0]), ([0, 1], [0, 2])):
        with pytest.raises(IndexError):
            m.submatrix(rows, cols)


def test_negative_dimensions_are_refused():
    for rows, cols, entries in ((-1, -1, [5]), (-1, 0, []), (0, -2, []), (2, -1, [])):
        with pytest.raises(ValueError, match="negative dimensions"):
            RatMatrix(rows, cols, entries)


def test_common_denominator_of_plain_ints_and_of_other_scalars():
    assert exact_core._common_denominator([3, -4, 0]) == (1, [3, -4, 0])
    assert exact_core._common_denominator([]) == (1, [])
    assert exact_core._common_denominator([2, Fraction(1, 6), Fraction(-3, 4)]) == (12, [24, 2, -9])
    # bool is an int subclass: its entries come back as plain ints
    den, ints = exact_core._common_denominator([True, 2, False])
    assert (den, ints) == (1, [1, 2, 0]) and all(type(x) is int for x in ints)
    for bad in ([1, 2.0], [0.5], [1, "2"], [Fraction(1, 2), 1.5]):
        with pytest.raises(TypeError, match="expected an exact scalar"):
            exact_core._common_denominator(bad)
    with pytest.raises(TypeError, match="got float"):
        RatMatrix(1, 2, [1, 2.0])


def test_matmul_shape_guard():
    ones = RatMatrix.from_rows([[1] * 3] * 2)
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        ones @ ones


def test_outer_and_row_sums():
    # the tests' outer-product builder, and row sums as a product with e
    m = outer((1, 2), (3, 4))
    assert m == RatMatrix.from_rows([[3, 4], [6, 8]])
    assert m.mul_vector((1, 1)) == (Fraction(7), Fraction(14))


# -- differential tests: integer kernel vs plain Fraction reference ------------
#
# The reference below is the textbook algorithm on Fraction entries, one
# gcd per operation.  Every oracle must agree with it exactly.


def _ref_mul(a: list[list[Fraction]], b: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """The product of a and b, b having cols columns."""
    return [
        [sum((row[t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def _ref_matmul(a: RatMatrix, b: RatMatrix) -> list[list[Fraction]]:
    return _ref_mul(a.to_lists(), b.to_lists(), b.cols)


def _ref_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan with first-nonzero pivoting; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = [x / rows[r][c] for x in rows[r]]
        rows[r] = lead
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _ref_det(rows: list[list[Fraction]]) -> Fraction:
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _ref_inertia(rows: list[list[Fraction]]) -> InertiaTriple:
    """Sylvester congruence on Fractions: 1x1 pivots, else a 2x2 hyperbolic pivot."""
    w = [list(r) for r in rows]
    plus = minus = 0
    while w:
        p = next((i for i in range(len(w)) if w[i][i] != 0), None)
        if p is not None:
            order = [p] + [i for i in range(len(w)) if i != p]
            w = [[w[i][j] for j in order] for i in order]
            d = w[0][0]
            plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
            w = [[w[i][j] - w[i][0] * w[0][j] / d for j in range(1, len(w))] for i in range(1, len(w))]
            continue
        pair = next(((i, j) for i in range(len(w)) for j in range(len(w)) if w[i][j] != 0), None)
        if pair is None:
            break
        i0, j0 = pair
        order = [i0, j0] + [i for i in range(len(w)) if i not in pair]
        w = [[w[i][j] for j in order] for i in order]
        b = w[0][1]
        w = [
            [w[i][j] - (w[i][0] * w[1][j] + w[i][1] * w[0][j]) / b for j in range(2, len(w))]
            for i in range(2, len(w))
        ]
        plus, minus = plus + 1, minus + 1
    return InertiaTriple(plus, minus, len(w))


def _with_rows(m: RatMatrix, fn) -> RatMatrix:
    return RatMatrix(m.rows, m.cols, [x for i, r in enumerate(m.to_lists()) for x in fn(i, r)])


def _differential_cases(rng) -> list[tuple[str, RatMatrix]]:
    cases = [
        ("0x0", RatMatrix(0, 0, [])),
        ("0x3", RatMatrix(0, 3, [])),
        ("3x0", RatMatrix(3, 0, [])),
        ("1x1", RatMatrix(1, 1, [Fraction(-7, 3)])),
        ("1x1 zero", RatMatrix.zeros(1, 1)),
        ("wide 3x6", random_matrix(rng, 3, 6)),
        ("tall 6x3", random_matrix(rng, 6, 3)),
        ("integer 6x6", random_matrix(rng, 6, 6, max_den=1)),
        ("integer singular", RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])),
        ("helm n=7", helm_distance_block(7)),
    ]
    for t in range(4):
        cases.append((f"general 7x7 #{t}", random_matrix(rng, 7, 7)))
    zero_rows = _with_rows(random_matrix(rng, 6, 6), lambda i, r: [Fraction(0)] * 6 if i in (1, 4) else r)
    cases.append(("zero rows", zero_rows))
    negative = _with_rows(random_matrix(rng, 6, 6), lambda i, r: [-abs(r[0]) - 1] + r[1:])
    cases.append(("negative leading pivots", negative))
    for t in range(3):
        order = 7 + t
        a = random_matrix(rng, order, order - 2)
        cases.append((f"rank-deficient gram {order}", a @ a.transpose()))
    for t in range(3):
        order = 4 + 2 * t
        s = random_symmetric(rng, order)
        cases.append(
            (f"zero-diagonal symmetric {order}", _with_rows(s, lambda i, r: r[:i] + [Fraction(0)] + r[i + 1 :]))
        )
    block = random_matrix(rng, 3, 3)
    cases.append(
        ("hyperbolic blocks", from_blocks([[RatMatrix.zeros(3, 3), block], [block.transpose(), RatMatrix.zeros(3, 3)]]))
    )
    a = random_matrix(rng, 9, 7)
    big = pseudoinverse(a @ a.transpose())
    cases.append(("pseudoinverse of gram 9 (large entries)", big))
    cases.append(("inverse of general 6 (large entries)", inverse(random_invertible(rng, 6))))
    # column 2 is twice column 0, so the pass skips a pivot column mid-way
    wide = _with_rows(random_matrix(rng, 3, 5), lambda i, r: r[:2] + [2 * r[0]] + r[3:])
    cases.append(("wide rank-deficient, dependent middle column", wide))
    big_den = [
        [Fraction(rng.randint(-(1 << 40), 1 << 40), rng.randint(1, 1 << 40)) for _ in range(8)]
        for _ in range(8)
    ]
    cases.append(("8x8 with distinct 40-bit denominators", RatMatrix.from_rows(big_den)))
    # pivots 1 and then 1*(-1) - 1*1 = -2: the last pivot is negative
    cases.append(("negative last pivot", RatMatrix.from_rows([[1, 1], [1, -1]])))
    return cases


def _bits(m: RatMatrix) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for r in m.to_lists() for x in r), default=0)


def test_differential_cases_reach_large_entries(rng):
    cases = dict(_differential_cases(rng))
    assert _bits(cases["pseudoinverse of gram 9 (large entries)"]) > 150


def test_differential_cases_reach_each_elimination_path(rng):
    cases = dict(_differential_cases(rng))
    assert rref(cases["wide rank-deficient, dependent middle column"])[1] == (0, 1, 3)
    big_den = cases["8x8 with distinct 40-bit denominators"]
    assert len({x.denominator for row in big_den.to_lists() for x in row}) == 64
    # the pass ends on the pivot -2, and returns q = 2 with the sign in scale
    m = cases["negative last pivot"]
    assert exact_core._echelon_ints(exact_core._int_rows(m), m.cols) == ([0, 1], 2, -1)


def test_forward_pass_keeps_the_pivots_q_and_scale_of_the_full_pass(rng):
    # rank and determinant run the pass without updating the rows above
    # each pivot; the rows at and below the pivot row are the same in both
    # passes, so the pivots, q, scale and the zero rows past the rank are
    cases = _differential_cases(rng) + [(f"helm D n={n}", helm_distance_block(n)) for n in (7, 8)]
    for label, m in cases:
        full, forward = exact_core._int_rows(m), exact_core._int_rows(m)
        result = exact_core._echelon_ints(forward, m.cols, reduced=False)
        assert result == exact_core._echelon_ints(full, m.cols), label
        r = len(result[0])
        assert forward[r:] == full[r:], label
        if r:
            assert forward[r - 1] == full[r - 1], label


def test_echelon_divides_each_row_by_its_content_first():
    # [[2, 4], [3, 9]] runs as [[1, 2], [1, 3]]: pivots 1 and 1, and the
    # contents 2 and 3 go to scale, so det = 6 * 1; without the division
    # the pivots would be 2 and 6
    rows = [[2, 4], [3, 9]]
    assert exact_core._echelon_ints(rows, 2) == ([0, 1], 1, 6)
    assert rows == [[1, 0], [0, 1]]


def test_matmul_matches_reference(rng):
    cases = _differential_cases(rng)
    for label, m in cases:
        left = random_matrix(rng, 3, m.rows)
        right = random_matrix(rng, m.cols, 4)
        for a, b in ((m, right), (left, m), (m, m.transpose()), (m.transpose(), m)):
            got = a @ b
            assert (got.rows, got.cols) == (a.rows, b.cols), label
            assert got.to_lists() == _ref_matmul(a, b), label
            assert all(type(x) is Fraction for r in got.to_lists() for x in r), label
    inner_zero = RatMatrix(2, 0, []) @ RatMatrix(0, 3, [])
    assert inner_zero == RatMatrix.zeros(2, 3)


# -- packed matmul: slot-boundary cases -----------------------------------------
#
# matmul packs each row of B into one integer with one slot per entry,
# wide enough for bound = inner * max|a| * max|b| plus a sign bit; slots of
# up to 64 bits are read as a C integer array, wider ones one at a time.


def _assert_matmul(a: RatMatrix, b: RatMatrix, label: str = "") -> RatMatrix:
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols), label
    assert got.to_lists() == _ref_matmul(a, b), label
    _assert_canonical(got, label)
    return got


@pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 71, 72, 450])
def test_matmul_reaches_the_bound_exactly(bits):
    # bound = 2 * 2^(bits-2) * 1 = 2^(bits-1), so bound.bit_length() == bits
    # and a slot needs bits + 1 bits; up to 63 the array path unpacks.
    # 7, 15, 31, 63 and 71 put the bound at the top of 1, 2, 4, 8 and 9
    # bytes (the last has no C type); 8, 16, 32, 64 and 72 put entries at
    # -2^(w-1) and 2^(w-1), w the bits of those widths, which need the next
    # width (test_slot_width_is_the_narrowest_that_fits pins the widths)
    top = 1 << (bits - 2)
    a = RatMatrix.from_rows([[top, top], [-top, -top], [top, -top], [-top, top]])
    b = RatMatrix.from_rows([[-1, 1, 0, 1, -1], [-1, 1, 1, -1, -1]])
    got = _assert_matmul(a, b, f"{bits} bits")
    bound = 2 * top
    # the first and last slots of a row hold -bound, the slot between +bound
    assert got.row(0) == (-bound, bound, top, 0, -bound)
    assert got.row(1) == (bound, -bound, -top, 0, bound)
    assert got.row(2) == (0, 0, -top, bound, 0)
    assert _assert_matmul(b.transpose(), a.transpose()) == got.transpose()


@pytest.mark.parametrize("bits", [3, 14, 30, 31, 449])
def test_matmul_negative_entries_in_every_slot(rng, bits):
    # bound < 4 * 2^(2 bits): 2-, 4- and 8-byte slots, then the wide path
    top = (1 << bits) - 1
    a = RatMatrix.from_rows([[rng.randint(1, top) for _ in range(4)] for _ in range(3)])
    b = RatMatrix.from_rows([[-rng.randint(1, top) for _ in range(6)] for _ in range(4)])
    got = _assert_matmul(a, b, f"{bits} bits")
    assert all(x < 0 for r in got.to_lists() for x in r)
    assert all(x > 0 for r in _assert_matmul(-a, b).to_lists() for x in r)
    checkerboard = RatMatrix.from_rows(
        [[x if (i + j) % 2 else -x for j, x in enumerate(r)] for i, r in enumerate(b.to_lists())]
    )
    _assert_matmul(a, checkerboard, f"{bits} bits, checkerboard signs")
    _assert_matmul(-a, -checkerboard, f"{bits} bits, both negated")


@pytest.mark.parametrize(
    "bits, size",
    [(7, 1), (8, 2), (15, 2), (16, 4), (31, 4), (32, 8), (63, 8), (64, 9), (71, 9), (72, 10)],
)
def test_slot_width_is_the_narrowest_that_fits(bits, size):
    # the bound 2^(bits-1) and a sign bit take `size` bytes: with slots of
    # that width, the int 2^(8 size) is exactly slot 1 of a packed pair
    pack, unpack = exact_core._kronecker(1 << (bits - 1))
    assert unpack([1 << (8 * size)], 2) == [0, 1]
    assert unpack(pack([-(1 << (bits - 1)), 1 << (bits - 1)], 2), 2) == [-(1 << (bits - 1)), 1 << (bits - 1)]


def test_matmul_zero_rows_columns_and_operands(rng):
    huge = RatMatrix(3, 4, [Fraction(rng.getrandbits(450) - (1 << 449), 7) for _ in range(12)])
    a = random_matrix(rng, 5, 3)
    a = _with_rows(a, lambda i, r: [Fraction(0)] * 3 if i in (0, 2, 4) else r)
    b = RatMatrix.from_rows([[0, *r[1:3], 0] for r in huge.to_lists()])
    _assert_matmul(a, b, "zero rows of A, zero first and last columns of B")
    for zero in (RatMatrix.zeros(5, 3), RatMatrix.zeros(2, 3)):
        assert _assert_matmul(zero, huge) == RatMatrix.zeros(zero.rows, 4)
    assert _assert_matmul(huge.transpose(), RatMatrix.zeros(3, 2)) == RatMatrix.zeros(4, 2)
    assert _assert_matmul(RatMatrix.zeros(4, 3), RatMatrix.zeros(3, 5)) == RatMatrix.zeros(4, 5)


def test_matmul_degenerate_shapes(rng):
    big = RatMatrix(2, 2, [Fraction(rng.getrandbits(450), 3) for _ in range(4)])
    for a, b in (
        (RatMatrix(0, 3, []), random_matrix(rng, 3, 4)),
        (random_matrix(rng, 4, 3), RatMatrix(3, 0, [])),
        (RatMatrix(0, 2, []), big),
        (RatMatrix(2, 0, []), RatMatrix(0, 3, [])),
        (RatMatrix(0, 0, []), RatMatrix(0, 0, [])),
    ):
        got = _assert_matmul(a, b, f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
        assert got == RatMatrix.zeros(a.rows, b.cols)
    assert _assert_matmul(RatMatrix(1, 1, [Fraction(-7, 3)]), RatMatrix(1, 1, [Fraction(3, 14)])) == RatMatrix(
        1, 1, [Fraction(-1, 2)]
    )
    assert _assert_matmul(RatMatrix(1, 1, [-(1 << 449)]), RatMatrix(1, 1, [-(1 << 449)]))[0, 0] == 1 << 898


def test_matmul_on_entries_of_about_450_bits(rng):
    def wide(rows, cols):
        return RatMatrix(
            rows, cols, [Fraction(rng.getrandbits(450) - (1 << 449), rng.getrandbits(440) | 1) for _ in range(rows * cols)]
        )

    for rows, inner, cols in ((3, 4, 5), (6, 6, 6), (1, 9, 2), (7, 1, 3)):
        a, b = wide(rows, inner), wide(inner, cols)
        _assert_matmul(a, b)
        _assert_matmul(a, random_matrix(rng, inner, cols))
        _assert_matmul(random_matrix(rng, rows, inner), b)


def test_matmul_random_shapes_and_widths(rng):
    widths = (1, 2, 7, 8, 15, 31, 32, 62, 63, 64, 120, 450)
    for trial in range(300):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        ops = []
        for rows, cols in ((n, k), (k, m)):
            bits = rng.choice(widths)
            ops.append(
                RatMatrix(
                    rows,
                    cols,
                    [
                        Fraction(rng.randint(-(1 << bits), 1 << bits) * (rng.random() < 0.8), rng.randint(1, 5))
                        for _ in range(rows * cols)
                    ],
                )
            )
        _assert_matmul(*ops, f"trial {trial}: {n}x{k} @ {k}x{m}")


def test_mul_vector_matches_reference(rng):
    for label, m in _differential_cases(rng):
        v = tuple(random_fraction(rng) for _ in range(m.cols))
        want = [r[0] for r in _ref_matmul(m, RatMatrix(m.cols, 1, v))]
        assert m.mul_vector(v) == tuple(want), label


def test_rref_rank_and_null_space_match_reference(rng):
    for label, m in _differential_cases(rng):
        ref_rows, ref_pivots = _ref_rref(m.to_lists(), m.cols)
        reduced, pivots = rref(m)
        assert pivots == tuple(ref_pivots), label
        assert reduced.to_lists() == ref_rows, label
        assert rank(m) == len(ref_pivots), label
        free = [j for j in range(m.cols) if j not in ref_pivots]
        ref_basis = []
        for j in free:
            v = [Fraction(0)] * m.cols
            v[j] = Fraction(1)
            for r, c in enumerate(ref_pivots):
                v[c] = -ref_rows[r][j]
            ref_basis.append(tuple(v))
        assert null_space_basis(m) == ref_basis, label


def test_determinant_matches_reference(rng):
    for label, m in _differential_cases(rng):
        if m.is_square():
            assert determinant(m) == _ref_det(m.to_lists()), label


def test_inverse_and_solve_match_reference(rng):
    for label, m in _differential_cases(rng):
        b = [random_fraction(rng) for _ in range(m.rows)]
        aug, piv = _ref_rref([r + [b[i]] for i, r in enumerate(m.to_lists())], m.cols + 1)
        if m.cols in piv:
            assert solve(m, b) is None, label
        else:
            x = [Fraction(0)] * m.cols
            for r, c in enumerate(piv):
                x[c] = aug[r][m.cols]
            assert solve(m, b) == tuple(x), label
        if not m.is_square():
            continue
        n = m.rows
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        work, piv = _ref_rref([r + ident[i] for i, r in enumerate(m.to_lists())], n)
        if len(piv) < n:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert inverse(m).to_lists() == [r[n:] for r in work], label


def test_pseudoinverse_matches_reference(rng):
    # the Penrose conditions, checked with the reference product, pin down
    # the Moore-Penrose inverse uniquely
    for label, m in _differential_cases(rng):
        x = pseudoinverse(m)
        assert (x.rows, x.cols) == (m.cols, m.rows), label
        mx = RatMatrix.from_rows(_ref_matmul(m, x)) if m.rows else RatMatrix(0, 0, [])
        xm = RatMatrix.from_rows(_ref_matmul(x, m)) if m.cols else RatMatrix(0, 0, [])
        assert _ref_matmul(mx, m) == m.to_lists(), label
        assert _ref_matmul(xm, x) == x.to_lists(), label
        assert mx.is_symmetric() and xm.is_symmetric(), label


def _ref_macduffee(m: RatMatrix) -> list[list[Fraction]]:
    """MacDuffee's G' (F' m G')^-1 F' on Fractions.

    F holds the pivot columns of m and G the nonzero rows of its reduced
    echelon form, so m = F G is a full-rank factorization.
    """
    rows = m.to_lists()
    reduced, pivots = _ref_rref(rows, m.cols)
    r = len(pivots)
    f_t = [[row[c] for row in rows] for c in pivots]
    g_t = [[row[j] for row in reduced[:r]] for j in range(m.cols)]
    core = _ref_mul(_ref_mul(f_t, rows, m.cols), g_t, r)
    ident = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    core_inv = [row[r:] for row in _ref_rref([a + b for a, b in zip(core, ident)], r)[0]]
    return _ref_mul(_ref_mul(g_t, core_inv, r), f_t, m.rows)


def test_pseudoinverse_matches_the_factorization_route(rng):
    # the same matrix by a second route: MacDuffee's formula on plain Fractions;
    # A B with A m x r and B r x n, m != n, has rank at most r
    shapes = [(0, 4, 0), (4, 0, 0), (3, 5, 0), (5, 2, 0), (6, 4, 1), (3, 7, 2), (8, 5, 3)]
    shapes += [(m, n, rng.randint(1, min(m, n))) for m, n in [(4, 6), (7, 3), (9, 5), (2, 8)]]
    cases = _differential_cases(rng)
    cases += [
        (f"{m}x{n} of rank <= {r}", random_matrix(rng, m, r) @ random_matrix(rng, r, n)) for m, n, r in shapes
    ]
    cases += [(f"helm n={n}", helm_distance_block(n)) for n in range(4, 16)]
    for label, m in cases:
        assert pseudoinverse(m).to_lists() == _ref_macduffee(m), label


def _basis_rows(vectors: list, width: int) -> RatMatrix:
    return RatMatrix(len(vectors), width, [x for v in vectors for x in v])


def test_two_sided_projection_of_any_generalized_inverse_is_the_pseudoinverse(rng):
    # G' = G + (I - G m) Y + Z (I - m G) is a generalized inverse of m for
    # any Y and Z (m G' m = m), and not the Gauss-Jordan pass's; projected
    # off N = ker m on the left and Q = ker m' on the right, with both
    # bases from null_space_basis, it must be MacDuffee's pseudoinverse.
    # Non-square shapes have dim N != dim Q, and most kernels are at least
    # two-dimensional, so the bases need Gram-Schmidt
    shapes = [(6, 6, 3), (7, 7, 5), (4, 4, 1), (5, 8, 2), (9, 4, 2), (3, 7, 0), (8, 3, 1)]
    shapes += [(m, n, rng.randint(1, min(m, n) - 1)) for m, n in [(6, 9), (10, 5), (7, 7), (5, 5)]]
    dims = set()
    for rows, cols, r in shapes:
        label = f"{rows}x{cols} of rank {r}"
        m = random_matrix(rng, rows, r) @ random_matrix(rng, r, cols)
        g = exact_core._gauss_jordan(m)[0]
        y, z = random_matrix(rng, cols, rows), random_matrix(rng, cols, rows)
        g = g + (RatMatrix.identity(cols) - g @ m) @ y + z @ (RatMatrix.identity(rows) - m @ g)
        assert m @ g @ m == m, label
        n_t = _basis_rows(null_space_basis(m), cols)
        q = _basis_rows(null_space_basis(m.transpose()), rows)
        assert (n_t.rows, q.rows) == (cols - r, rows - r), label
        dims.add((n_t.rows, q.rows))
        assert exact_core._project_out(g, n_t, q).to_lists() == _ref_macduffee(m), label
    assert any(a != b for a, b in dims) and any(min(a, b) >= 2 for a, b in dims)
    # no kernel on either side: the projection is g itself, not a copy
    g = random_invertible(rng, 5)
    assert exact_core._project_out(g, RatMatrix(0, 5, []), RatMatrix(0, 5, [])) is g


def test_inertia_matches_reference(rng):
    symmetric = [(label, m) for label, m in _differential_cases(rng) if m.is_symmetric()]
    assert any(label.startswith("zero-diagonal") for label, _ in symmetric)
    for t in range(10):
        symmetric.append((f"random symmetric #{t}", random_symmetric(rng, rng.randint(1, 7))))
    for label, m in symmetric:
        assert inertia(m) == _ref_inertia(m.to_lists()), label


# -- the congruence kernel's pivot paths -----------------------------------------
#
# The kernel pivots on the nonzero diagonal entry of least absolute value
# (lowest index on a tie) and takes a 2x2 pivot on the first nonzero
# off-diagonal entry when the whole diagonal is zero.  Each matrix below
# is built to take one path; the comment names the pivots it takes.


def _one_then_zero_diagonal(u: list[int], z: list[list[int]]) -> RatMatrix:
    # [[a, u'], [u, Z + uu'/a]] with a = 1/100 the least diagonal entry:
    # the 1x1 pivot on a leaves the zero-diagonal Z, so a 2x2 pivot follows
    a, k = Fraction(1, 100), len(u)
    return RatMatrix.from_rows(
        [[a] + u] + [[u[i]] + [z[i][j] + u[i] * u[j] / a for j in range(k)] for i in range(k)]
    )


_KERNEL_PATHS = [
    ("1x1, then 2x2, then 1x1", _one_then_zero_diagonal([1, -1, 3], [[0, 1, 2], [1, 0, -1], [2, -1, 0]])),
    # Z's first row is zero, so the 2x2 step drops it as a zero eigenvalue
    # after the 1x1 step has made its row of the transform e_1 - 100 e_0
    (
        "1x1, then a zero row dropped before a 2x2",
        _one_then_zero_diagonal(
            [1, -1, 3, 2], [[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 0, -1], [0, 2, -1, 0]]
        ),
    ),
    # the 2x2 pivot on (0, 1) leaves diagonal -16, -30: 1x1 pivots on negatives
    ("2x2, then negative 1x1", RatMatrix.from_rows([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])),
    # a zero row 0 (a zero eigenvalue) and a_12 = 0 put the first nonzero
    # off-diagonal entry, -2, at (1, 3), with rows between and after the pair
    (
        "2x2 on an inner pair with b < 0",
        RatMatrix.from_rows(
            [
                [0, 0, 0, 0, 0, 0],
                [0, 0, 0, -2, 1, -1],
                [0, 0, 0, 3, -2, 1],
                [0, -2, 3, 0, 1, 2],
                [0, 1, -2, 1, 0, -3],
                [0, -1, 1, 2, -3, 0],
            ]
        ),
    ),
    # |-2| = |2| = |-2| at indices 1, 2 and 3: the tie goes to index 1, negative
    (
        "tied negative least pivot",
        RatMatrix.from_rows(
            [[3, 1, 0, 1, 0], [1, -2, 1, 0, 0], [0, 1, 2, 1, 1], [1, 0, 1, -2, 1], [0, 0, 1, 1, 5]]
        ),
    ),
    ("tied positive least pivots", RatMatrix.from_rows([[1, 2, 0], [2, 1, 3], [0, 3, 1]])),
    # a block step: the least pivot 2 at index 1, then -3 and 4, which are
    # uncoupled from it and from each other, in one step with lcm 12 (not
    # the largest pivot); the rest 3, 4 is coupled to index 1, and its
    # Schur complement is exactly zero, so a wrong weight shows
    (
        "block of three mixed-sign pivots",
        RatMatrix.from_rows(
            [[4, 0, 0, 0, 4], [0, 2, 0, 2, 2], [0, 0, -3, 6, 0], [0, 2, 6, -10, 2], [4, 2, 0, 2, 6]]
        ),
    ),
    # indices 1 and 2 are both uncoupled from the least pivot 0, but
    # a_12 = 3: the block is {0, 1}, and 2 must wait, since [[2, 3], [3, 3]]
    # is indefinite while its diagonal is not
    (
        "block rejects a candidate coupled to a chosen pivot",
        RatMatrix.from_rows([[1, 0, 0, 1], [0, 2, 3, 1], [0, 3, 3, 1], [1, 1, 1, 5]]),
    ),
    # every nonzero index is one block, and the zero indices are left
    (
        "diagonal with zeros",
        RatMatrix.from_rows([[x if i == j else 0 for j in range(6)] for i, x in enumerate([0, 3, Fraction(-1, 2), 0, 2, -5])]),
    ),
    # the first block is the hub and the pendants
    ("helm L n=5", make_odd_case(5).laplacian_like),
    ("helm L n=6", make_even_case(6).laplacian_like),
    ("0x0", RatMatrix(0, 0, [])),
    ("1x1 positive", RatMatrix.from_rows([[Fraction(5, 7)]])),
    ("1x1 negative", RatMatrix.from_rows([[Fraction(-3, 2)]])),
    ("1x1 zero", RatMatrix.zeros(1, 1)),
]


@pytest.mark.parametrize("label, m", _KERNEL_PATHS, ids=[label for label, _ in _KERNEL_PATHS])
def test_inertia_on_each_kernel_path_matches_both_references(label, m):
    tri = inertia(m)
    assert tri == _ref_inertia(m.to_lists())
    assert tri == _inertia_by_sign_variations(m)


def test_inertia_is_invariant_under_symmetric_permutation(rng):
    # m.submatrix(perm, perm) is P'MP for the permutation matrix P with
    # P e_k = e_perm[k]; the pivot choice depends on the values, so a
    # permutation changes the path the kernel takes, but never the inertia
    cases = []
    for order in range(1, 13):
        cases.append((f"random symmetric {order}", random_symmetric(rng, order)))
        cases.append((f"zero-diagonal {order}", _zero_diagonal(rng, order)))
        if order > 2:
            a = random_matrix(rng, order, order // 2)
            cases.append((f"gram {order} of rank {order // 2}", a @ a.transpose()))
    for n in (5, 6, 9, 12, 13, 21):
        case = make_odd_case(n) if n % 2 else make_even_case(n)
        cases.append((f"helm L n={n}", case.laplacian_like))
    for label, m in cases:
        want = inertia(m)
        for _ in range(4):
            perm = list(range(m.rows))
            rng.shuffle(perm)
            assert inertia(m.submatrix(perm, perm)) == want, (label, perm)
        reverse = list(range(m.rows))[::-1]
        assert inertia(m.submatrix(reverse, reverse)) == want, label


def test_inertia_of_helm_d_and_l_is_the_papers_for_every_small_n():
    # the paper: D has one positive eigenvalue, and one zero eigenvalue
    # for odd n; L is positive semidefinite of rank 2n-2 (even n) or 2n-3
    for n in range(4, 41):
        odd = n % 2
        d_want = InertiaTriple(1, 2 * n - 2 - odd, odd)
        l_want = InertiaTriple(2 * n - 2 - odd, 0, 1 + odd)
        case = make_odd_case(n) if odd else make_even_case(n)
        assert inertia(helm_distance_block(n)) == d_want, n
        assert inertia(case.laplacian_like) == l_want, n


@pytest.mark.parametrize("n", (17, 30, 41, 61))
def test_inertia_of_helm_l_at_larger_n_is_the_papers(n):
    # the paper: L is positive semidefinite of rank 2n-3 for odd n, and of
    # rank 2n-2 for even n; factor_symmetric reaches the same inertia by
    # the Schur-complement recursion, since order 2n-1 > the cutoff
    case = make_odd_case(n) if n % 2 else make_even_case(n)
    lap = case.laplacian_like
    want = InertiaTriple(2 * n - 3, 0, 2) if n % 2 else InertiaTriple(2 * n - 2, 0, 1)
    assert lap.rows > exact_core._SCHUR_CUTOFF
    assert inertia(lap) == want
    assert exact_core.factor_symmetric(lap)[0] == want


# -- differential tests: integer storage vs plain Fraction reference -----------
#
# RatMatrix keeps one denominator and integer entries; every elementwise
# operation and block assembly must equal the entrywise Fraction result.


_SCALARS = (0, 1, -3, Fraction(-7, 4), Fraction(5, 9), Fraction(2**200 + 1, 3**90))


def _assert_canonical(m: RatMatrix, label: str) -> None:
    assert m._den > 0, label
    assert math.gcd(m._den, *m._ints) == 1, label
    if m.is_zero():
        assert m._den == 1, label
    assert all(type(x) is Fraction for r in m.to_lists() for x in r), label


def _mixed(rng, count: int, big: RatMatrix) -> list[Fraction]:
    """count small random fractions, every third replaced by an entry of big."""
    flat = [x for r in big.to_lists() for x in r]
    return [flat[i % len(flat)] if i % 3 == 0 else random_fraction(rng) for i in range(count)]


def _partner(rng, m: RatMatrix, big: RatMatrix) -> RatMatrix:
    """A second operand of m's shape, partly with large entries."""
    return RatMatrix(m.rows, m.cols, _mixed(rng, m.rows * m.cols, big))


def test_elementwise_ops_match_reference(rng):
    cases = _differential_cases(rng)
    big = dict(cases)["pseudoinverse of gram 9 (large entries)"]
    for label, m in cases:
        other = _partner(rng, m, big)
        a, b = m.to_lists(), other.to_lists()
        results = [
            (m + other, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (m - other, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (other - m, [[y - x for x, y in zip(r, s)] for r, s in zip(a, b)]),
            (-m, [[-x for x in r] for r in a]),
            (m.transpose(), [[a[i][j] for i in range(m.rows)] for j in range(m.cols)]),
        ]
        for c in _SCALARS:
            want = [[c * x for x in r] for r in a]
            results += [(c * m, want), (m * c, want)]
        for got, want in results:
            assert got.to_lists() == want, label
            _assert_canonical(got, label)
        assert m.is_zero() == all(x == 0 for r in a for x in r), label
        assert (m - m).is_zero() and (m - m) == RatMatrix.zeros(m.rows, m.cols), label
        ref_symmetric = m.is_square() and all(
            a[i][j] == a[j][i] for i in range(m.rows) for j in range(m.cols)
        )
        assert m.is_symmetric() == ref_symmetric, label
        if m.is_square() and m.rows > 1:
            sym = m + m.transpose()
            assert sym.is_symmetric(), label
            bumped = sym + outer([1] + [0] * (m.rows - 1), [0, 1] + [0] * (m.rows - 2))
            assert not bumped.is_symmetric(), label
        v = _mixed(rng, m.cols, big)
        want_v = tuple(sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in a)
        assert m.mul_vector(v) == want_v, label


def test_submatrix_matches_reference(rng):
    for label, m in _differential_cases(rng):
        a = m.to_lists()
        row_idx = [i for i in range(m.rows) if rng.random() < 0.6][::-1]
        col_idx = [j for j in range(m.cols) if rng.random() < 0.6] + list(range(min(m.cols, 2)))
        sub = m.submatrix(row_idx, col_idx)
        assert sub.to_lists() == [[a[i][j] for j in col_idx] for i in row_idx], label
        _assert_canonical(sub, label)


def test_equal_matrices_have_equal_storage(rng):
    for label, m in _differential_cases(rng):
        zeros = RatMatrix.zeros(m.rows, m.cols)
        routes = [
            2 * (m * Fraction(1, 2)),
            RatMatrix.from_rows(m.to_lists()) if m.rows else RatMatrix(0, m.cols, []),
            RatMatrix(m.rows, m.cols, [x for r in m.to_lists() for x in r]),
            m + zeros,
            zeros + m,
            m - zeros,
            -(-m),
            (m * 6) * Fraction(1, 6),
            m * 7 - m * 6,
            (m + m) * Fraction(1, 2),
            m.transpose().transpose(),
            m.submatrix(range(m.rows), range(m.cols)),
            RatMatrix.identity(m.rows) @ m,
        ]
        for got in routes:
            _assert_canonical(got, label)
            assert got == m and hash(got) == hash(m), label
        for zero in (m - m, 0 * m, m * Fraction(0), zeros @ RatMatrix.zeros(m.cols, 2) @ RatMatrix.zeros(2, m.cols)):
            _assert_canonical(zero, label)
            assert zero == zeros and hash(zero) == hash(zeros), label


# -- the Schur-complement recursion for symmetric matrices ---------------------
#
# Above the cutoff, factor_symmetric splits M = [[A, B], [B', E]]; its
# inertia, determinant and pseudoinverse must equal the congruence
# inertia and the Gauss-Jordan determinant of the whole of M, and a
# Moore-Penrose inverse found without any split: the MacDuffee reference
# on plain Fractions and the one Gauss-Jordan pass of pseudoinverse where
# those are affordable, and the four Penrose conditions, which have one
# solution, everywhere.


def _zero_diagonal(rng, order: int) -> RatMatrix:
    s = random_symmetric(rng, order)
    return _with_rows(s, lambda i, r: r[:i] + [Fraction(0)] + r[i + 1 :])


def _assert_matches_independent_routes(m: RatMatrix, label: str, macduffee: bool) -> None:
    assert m.rows > exact_core._SCHUR_CUTOFF, label
    tri, det, pinv = exact_core.factor_symmetric(m)
    assert tri == inertia(m), label
    assert det == determinant(m), label
    assert penrose_check(m, pinv), label
    if m.rows <= 61:
        assert pinv == pseudoinverse(m), label
    if macduffee:
        assert pinv.to_lists() == _ref_macduffee(m), label


def test_factor_symmetric_matches_independent_routes_on_helm_d():
    # orders 25..121; the odd-n D has a one-dimensional kernel
    for n in range(13, 62):
        _assert_matches_independent_routes(helm_distance_block(n), f"helm n={n}", n <= 14)


def test_factor_symmetric_matches_independent_routes_on_random_matrices(rng):
    cases = [
        ("random symmetric 25", random_symmetric(rng, 25), False),
        ("random symmetric 60", random_symmetric(rng, 60), False),
        ("zero-diagonal 25", _zero_diagonal(rng, 25), False),
        ("zero-diagonal 40", _zero_diagonal(rng, 40), False),
        ("zero 30", RatMatrix.zeros(30, 30), True),
    ]
    for order, r in ((25, 23), (32, 12), (40, 20)):
        a = random_matrix(rng, order, r)
        cases.append((f"gram {order} of rank {r}", a @ a.transpose(), order == 25))
    for label, m, macduffee in cases:
        _assert_matches_independent_routes(m, label, macduffee)


def test_factor_symmetric_requires_symmetry():
    with pytest.raises(ValueError, match="factor_symmetric requires a symmetric"):
        exact_core.factor_symmetric(RatMatrix.from_rows([[0, 1], [2, 0]]))


def _spy_on_splits(monkeypatch) -> tuple[list, list]:
    """Record (matrix order, split succeeded) for every Schur split, and
    the matrix order of every block the base passes factor (the
    congruence calls that carry the row transform)."""
    tries, base_orders = [], []
    split, congruence = exact_core._schur_split, exact_core._congruence

    def spying_split(m):
        f = split(m)
        tries.append((m.rows, f is not None))
        return f

    def spying_congruence(m, carry=False):
        if carry:
            base_orders.append(m.rows)
        return congruence(m, carry)

    monkeypatch.setattr(exact_core, "_schur_split", spying_split)
    monkeypatch.setattr(exact_core, "_congruence", spying_congruence)
    return tries, base_orders


def test_singular_leading_block_falls_back_to_the_base_passes_after_one_try(rng, monkeypatch):
    # [[0, B], [B', E]] with E positive definite: E's indices have nonzero
    # diagonal entries, so they lead and the first split succeeds.
    # [[0, B], [B', 0]] with equal halves has a zero diagonal and no zero
    # row, so it keeps its natural order, leads with a zero block, and
    # falls back to the base passes at full size after that one try.
    # Both must give the same answers as the independent routes.
    tries, base_orders = _spy_on_splits(monkeypatch)
    # integer entries keep the MacDuffee reference quick
    b, c = random_matrix(rng, 13, 13, max_den=1), random_matrix(rng, 13, 13, max_den=1)
    zero = RatMatrix.zeros(13, 13)
    e = c @ c.transpose() + RatMatrix.identity(13)
    split_first = from_blocks([[zero, b], [b.transpose(), e]])
    _assert_matches_independent_routes(split_first, "split first", macduffee=True)
    assert tries == [(26, True)]
    assert base_orders == [13, 13]
    tries.clear()
    base_orders.clear()
    fallback = from_blocks([[zero, b], [b.transpose(), zero]])
    _assert_matches_independent_routes(fallback, "fallback", macduffee=True)
    assert tries == [(26, False)]
    assert base_orders == [13, 26]


def test_zero_rows_never_lead_a_split(rng, monkeypatch):
    # a zero-diagonal block behind zero rows at the first indices: every
    # diagonal entry is zero, and in the natural order the leading half
    # would hold the zero rows and be singular
    tries, base_orders = _spy_on_splits(monkeypatch)
    core = _zero_diagonal(rng, 20)
    pad = RatMatrix.zeros(4, 20)
    m = from_blocks([[RatMatrix.zeros(4, 4), pad], [pad.transpose(), core]])
    _assert_matches_independent_routes(m, "zero rows first", macduffee=False)
    assert tries == [(24, True)]
    assert max(base_orders) <= exact_core._SCHUR_CUTOFF


@pytest.mark.parametrize("n", [13, 21, 41, 61])
def test_odd_helm_d_splits_without_a_failed_try(monkeypatch, n):
    # each trailing Schur complement of an odd-n D holds the kernel as a
    # zero row; the split order puts it last, so no leading block is
    # singular and no block above the cutoff reaches the base passes
    tries, base_orders = _spy_on_splits(monkeypatch)
    tri, det, _ = exact_core.factor_symmetric(helm_distance_block(n))
    assert (tri, det) == ((1, 2 * n - 3, 1), 0)
    assert tries and all(ok for _, ok in tries)
    assert max(base_orders) <= exact_core._SCHUR_CUTOFF


def _symmetric_singular_cases(rng) -> list[tuple[str, RatMatrix]]:
    """Symmetric matrices with kernels of dimension 1 to 10."""
    cases = []
    for order, r in ((6, 5), (9, 4), (12, 4), (14, 7), (18, 8), (20, 11)):
        a = random_matrix(rng, order, r)
        cases.append((f"gram {order} of rank {r}", a @ a.transpose()))
    for half, r in ((4, 3), (6, 3), (9, 4)):
        # [[0, B], [B', 0]] with B of rank r has a kernel of dimension 2 (half - r)
        b = random_matrix(rng, half, r) @ random_matrix(rng, r, half)
        zero = RatMatrix.zeros(half, half)
        m = from_blocks([[zero, b], [b.transpose(), zero]])
        cases.append((f"zero-diagonal {2 * half} of rank {2 * r}", m))
    pad = RatMatrix.zeros(7, 3)
    m = from_blocks([[_zero_diagonal(rng, 7), pad], [pad.transpose(), RatMatrix.zeros(3, 3)]])
    cases.append(("zero-diagonal 10 with 3 zero rows", m))
    for order in (1, 4, 10):
        cases.append((f"zero {order}", RatMatrix.zeros(order, order)))
    for n in (5, 7, 13, 21):
        cases.append((f"helm n={n}", helm_distance_block(n)))
    return cases


def test_two_sided_projection_of_any_symmetric_generalized_inverse_is_the_pseudoinverse(rng):
    # the symmetric generalized inverse may be any one: the congruence's
    # F' Omega F, the recursion's, or either plus N' Z N for a symmetric Z
    # (M N' = 0, so it stays a symmetric generalized inverse); the
    # projection must give the Gauss-Jordan pass's pseudoinverse and, up to
    # order 14, MacDuffee's on plain Fractions
    dims = set()
    for label, m in _symmetric_singular_cases(rng):
        want = pseudoinverse(m)
        if m.rows <= 14:
            assert want.to_lists() == _ref_macduffee(m), label
        kernel_dim = m.rows - rank(m)
        dims.add(kernel_dim)
        for f in (exact_core._congruence(m, carry=True), exact_core._factor(m)):
            assert f.kernel.rows == kernel_dim, label
            z = random_symmetric(rng, kernel_dim)
            for g in (f.ginv, f.ginv + f.kernel.transpose() @ z @ f.kernel):
                assert g.is_symmetric() and m @ g @ m == m, label
                assert exact_core._project_out(g, f.kernel, f.kernel) == want, label
    assert dims == set(range(1, 11))


# -- the base factor: one congruence pass that carries its row transform -------
#
# Below the cutoff factor_symmetric is _congruence(m, carry=True) plus the
# two-sided projection.  Its inertia, determinant, generalized inverse and
# kernel must equal what the single-pass oracles give the same matrix: the
# congruence inertia without the transform, and the Gauss-Jordan pass's
# determinant, inverse, rank and pseudoinverse.


def _assert_base_factor_matches_independent_routes(m: RatMatrix, label: str) -> None:
    assert m.rows <= exact_core._SCHUR_CUTOFF, label
    f = exact_core._congruence(m, carry=True)
    assert f.inertia == inertia(m), label
    assert f.det == determinant(m), label
    assert f.kernel.rows == m.rows - rank(m), label
    if f.kernel.rows:
        assert f.ginv.is_symmetric() and m @ f.ginv @ m == m, label
        assert (f.kernel @ m).is_zero(), label
    else:
        assert f.ginv == inverse(m), label
    pinv = exact_core._project_out(f.ginv, f.kernel, f.kernel)
    assert pinv == pseudoinverse(m), label
    assert exact_core.factor_symmetric(m) == (f.inertia, f.det, pinv), label


def _below_cutoff_cases(rng) -> list[tuple[str, RatMatrix]]:
    cases = [
        ("0x0", RatMatrix(0, 0, [])),
        ("1x1 zero", RatMatrix.zeros(1, 1)),
        ("1x1 nonzero", RatMatrix.from_rows([[Fraction(-4, 9)]])),
    ]
    cases += [(f"kernel path {label}", m) for label, m in _KERNEL_PATHS]
    for lead, order in ((1, 5), (3, 9), (4, 16)):
        # zero rows first: the 2x2 step drops them as kernel rows
        pad = RatMatrix.zeros(lead, order - lead)
        core = _zero_diagonal(rng, order - lead)
        m = from_blocks([[RatMatrix.zeros(lead, lead), pad], [pad.transpose(), core]])
        cases.append((f"zero-diagonal {order} behind {lead} zero rows", m))
    for order in range(1, 17):
        cases.append((f"random symmetric {order}", random_symmetric(rng, order)))
        a = random_matrix(rng, order, (order + 1) // 2)
        cases.append((f"gram {order} of rank {(order + 1) // 2}", a @ a.transpose()))
    for n in range(4, 9):
        cases.append((f"helm n={n}", helm_distance_block(n)))
    return cases


def test_base_factor_matches_independent_routes_below_the_cutoff(rng):
    cases = _below_cutoff_cases(rng)
    singular = [label for label, m in cases if rank(m) < m.rows]
    assert len(singular) > len(cases) // 3
    for label, m in cases:
        _assert_base_factor_matches_independent_routes(m, label)


def _refuse_echelon(*args):
    raise AssertionError("an elimination pass besides the congruence ran")


def test_base_factor_runs_no_echelon_pass(monkeypatch):
    # no rank, determinant or Gauss-Jordan pass runs inside the base factor,
    # nor in the two-sided projection of a singular block, which inverts no
    # Gram matrix
    for m in (helm_distance_block(7), helm_distance_block(8)):
        with monkeypatch.context() as patch:
            patch.setattr(exact_core, "_echelon_ints", _refuse_echelon)
            f = exact_core._congruence(m, carry=True)
            projected = exact_core._project_out(f.ginv, f.kernel, f.kernel)
        assert (f.inertia, f.det) == (inertia(m), determinant(m))
        assert projected == pseudoinverse(m)


@pytest.mark.parametrize("n", (7, 8, 13, 21))
def test_factor_symmetric_of_helm_d_runs_no_echelon_pass(monkeypatch, n):
    # both sides of the recursion cutoff, both parities: the split, the
    # base passes and the projection eliminate only by congruence
    m = helm_distance_block(n)
    with monkeypatch.context() as patch:
        patch.setattr(exact_core, "_echelon_ints", _refuse_echelon)
        tri, det, pinv = exact_core.factor_symmetric(m)
    assert (tri, det, pinv) == (inertia(m), determinant(m), pseudoinverse(m))


_CONGRUENCE_CASES = _KERNEL_PATHS + [(f"helm D n={n}", helm_distance_block(n)) for n in range(4, 9)]


@pytest.mark.parametrize(
    "label, m", _CONGRUENCE_CASES, ids=[label for label, _ in _CONGRUENCE_CASES]
)
def test_congruence_multiplies_no_empty_matrices(label, m, monkeypatch):
    # a block step that takes every remaining index leaves no complement,
    # so neither its W product nor its E product is taken; and a step
    # sweeps one or two pivots, so each product a step takes has three or
    # more left columns, and a nonzero left factor U K.  The factor's own
    # F' Omega F product is not a step's
    shapes, in_gram = [], []
    matmul, gram = RatMatrix.__matmul__, exact_core._weighted_gram

    def spying_matmul(a, b):
        shapes.append((a.rows, a.cols, b.cols, a.is_zero(), bool(in_gram)))
        return matmul(a, b)

    def marking_gram(n, terms):
        in_gram.append(True)
        try:
            return gram(n, terms)
        finally:
            in_gram.pop()

    monkeypatch.setattr(RatMatrix, "__matmul__", spying_matmul)
    monkeypatch.setattr(exact_core, "_weighted_gram", marking_gram)
    inertia(m)
    exact_core._congruence(m, carry=True)
    assert all(all(shape[:3]) for shape in shapes), shapes
    steps = [shape for shape in shapes if not shape[4]]
    assert all(inner >= 3 and not zero for _, inner, _, zero, _ in steps), steps


def _ref_rank_update(scale, rows, left, right):
    # scale * rows - L R entry by entry, row k as long as rows[k]
    return [
        [scale * x - sum(c[k] * r[j] for c, r in zip(left, right)) for j, x in enumerate(row)]
        for k, row in enumerate(rows)
    ]


def _mixed_ints(rng, count: int) -> list[int]:
    # zeros, small and wide entries, so rows with a zero left entry and
    # packed slots of several widths both show up
    return [rng.choice((0, rng.randint(-9, 9), rng.randint(-(2**90), 2**90))) for _ in range(count)]


@pytest.mark.parametrize("terms", [1, 2, 3, 6])
def test_rank_update_matches_plain_integers_on_each_path(rng, terms, monkeypatch):
    products = []
    matmul = RatMatrix.__matmul__

    def spying_matmul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", spying_matmul)
    # (rows, width): empty rows, zero-width right rows, and rows of a
    # lower triangle (row k has k + 1 entries) or full rows
    for nr, width in ((0, 0), (0, 4), (3, 0), (1, 1), (5, 5), (6, 9)):
        for triangle in (False, True):
            if triangle and nr > width:
                continue
            rows = [_mixed_ints(rng, k + 1 if triangle else width) for k in range(nr)]
            right = [_mixed_ints(rng, width) for _ in range(terms)]
            # scale != 1, so a skip that forgets to scale shows
            scale = rng.choice((12, 2**70 + 1))
            zero = [[0] * nr for _ in range(terms)]
            for left in ([_mixed_ints(rng, nr) for _ in range(terms)], zero):
                products.clear()
                got = exact_core._rank_update(scale, [list(row) for row in rows], left, right)
                label = (terms, nr, width, triangle, left)
                assert got == _ref_rank_update(scale, rows, left, right), label
                # one or two terms are swept, and an all-zero L takes no product
                packed = terms >= 3 and any(map(any, left))
                assert products == ([(nr, terms, width)] if packed else []), label
