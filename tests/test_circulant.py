"""Circulant algebra, delta symmetry, and exact spectral facts."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmlab import (
    RatMatrix,
    alternating_signs,
    circulant_product,
    cycle_signless_laplacian_spec,
    determinant,
    make_even_case,
    make_odd_case,
    materialize,
    rank,
    rim_distance_spec,
)
from helmlab.circulant import Bordered, Circulant, bordered_circulant, lift
from support import random_delta_vector, random_fraction

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def specs(max_len: int = 8):
    return st.lists(small_fractions, min_size=1, max_size=max_len).map(tuple)


# -- materialize ------------------------------------------------------------


def test_materialize_unit_spec_is_identity():
    spec = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert materialize(spec) == RatMatrix.identity(4)


def test_materialize_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        materialize(())


def test_materialize_signless_laplacian_n7():
    spec = cycle_signless_laplacian_spec(6)
    assert spec == (2, 1, 0, 0, 0, 1)
    s = materialize(spec)
    assert s.row_sums() == tuple([4] * 6)
    assert s.is_symmetric()


def test_materialize_rim_distance_spec():
    spec = rim_distance_spec(6)
    assert spec == (0, 1, 2, 2, 2, 1)
    d = materialize(spec)
    assert max(d.row(0)) == 2
    assert d.is_symmetric()


def test_materialize_matches_the_entrywise_definition(rng):
    # mixed denominators, zeros and integer specs; the result is canonical
    for k in range(1, 10):
        for den in (1, 6):
            first = tuple(random_fraction(rng, max_den=den) for _ in range(k))
            m = materialize(first)
            want = RatMatrix(k, k, [first[(j - i) % k] for i in range(k) for j in range(k)])
            assert m == want


def test_row_shift_structure():
    spec = tuple(map(Fraction, (5, 6, 7)))
    m = materialize(spec)
    assert m.row(1) == (Fraction(7), Fraction(5), Fraction(6))
    assert m.row(2) == (Fraction(6), Fraction(7), Fraction(5))


# -- products ----------------------------------------------------------------


def test_product_with_unit_spec_is_identity_map():
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    b = tuple(map(Fraction, (3, -2, 5)))
    assert circulant_product(e1, b) == b


def test_product_length_guard():
    a = (Fraction(1),)
    b = (Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="specs of length"):
        circulant_product(a, b)


@given(st.integers(1, 8).flatmap(
    lambda k: st.tuples(
        st.lists(small_fractions, min_size=k, max_size=k),
        st.lists(small_fractions, min_size=k, max_size=k),
    )
))
def test_product_matches_dense_multiplication_and_commutes(pair):
    a = tuple(pair[0])
    b = tuple(pair[1])
    prod = circulant_product(a, b)
    assert materialize(prod) == materialize(a) @ materialize(b)
    assert prod == circulant_product(b, a)


def test_product_dense_agreement_seeded(rng):
    for _ in range(50):
        k = rng.randint(1, 8)
        a = tuple(random_fraction(rng) for _ in range(k))
        b = tuple(random_fraction(rng) for _ in range(k))
        assert materialize(circulant_product(a, b)) == materialize(a) @ materialize(b)


def test_linearity_of_materialize(rng):
    k = 6
    a = tuple(random_fraction(rng) for _ in range(k))
    b = tuple(random_fraction(rng) for _ in range(k))
    c1, c2 = Fraction(3, 2), Fraction(-2, 5)
    combo = tuple(c1 * x + c2 * y for x, y in zip(a, b))
    assert materialize(combo) == c1 * materialize(a) + c2 * materialize(b)


# -- bordered block grid ------------------------------------------------------


def test_bordered_circulant_matches_the_dense_block_grid(rng):
    # mixed denominators, and for k >= 3 a q whose circulant is not
    # symmetric, so that the lower-left block must be Q' and not Q
    for k in range(1, 13):
        hub, b1, b2 = (random_fraction(rng, max_den=rng.randint(1, 6)) for _ in range(3))
        p, q, r = (tuple(random_fraction(rng, max_den=6) for _ in range(k)) for _ in range(3))
        if k >= 3:
            q = q[:-1] + (q[1] + 1,)
            assert not materialize(q).is_symmetric()
        big_q = materialize(q)
        e_row, e_col = RatMatrix.ones(1, k), RatMatrix.ones(k, 1)
        want = RatMatrix.from_blocks(
            [
                [hub, b1 * e_row, b2 * e_row],
                [b1 * e_col, materialize(p), big_q],
                [b2 * e_col, big_q.transpose(), materialize(r)],
            ]
        )
        assert bordered_circulant(hub, (b1, b2), (p, q, r)) == want


@pytest.mark.parametrize(
    "specs, message",
    [
        (((), (), ()), "nonempty"),
        (((1, 2), (1,), (1, 2)), "specs of length"),
        (((1, 2), (1, 2), (1, 2, 3)), "specs of length"),
    ],
)
def test_bordered_circulant_rejects_empty_and_unequal_specs(specs, message):
    with pytest.raises(ValueError, match=message):
        bordered_circulant(0, (1, 2), specs)


def test_product_rejects_empty_specs():
    with pytest.raises(ValueError, match="nonempty"):
        circulant_product((), ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: materialize((1, 0.5)),
        lambda: circulant_product((1, 2), (Fraction(1, 3), 0.5)),
        lambda: bordered_circulant(0, (1, 2), ((1, 2), (0.5, 1), (1, 1))),
        lambda: bordered_circulant(0.0, (1, 2), ((1, 2), (1, 1), (1, 1))),
    ],
)
def test_float_entries_are_refused(build):
    with pytest.raises(TypeError, match="exact scalar"):
        build()


# -- packed convolution -------------------------------------------------------


def _ref_cyclic(a, b):
    """sum_i a_i b_((j - i) mod k), term by term."""
    k = len(a)
    return tuple(sum(a[i] * b[(j - i) % k] for i in range(k)) for j in range(k))


# the bits below put the bound 2^(bits-1) at the top of each slot width
# (7, 15, 31, 63, 71: 1, 2, 4 and 8 bytes, the C array types, and 9
# bytes, which no C type has) and one bit past it (8, 16, 32, 64, 72),
# where entries at -2^(w-1) and 2^(w-1), w the bits of the narrower
# width, need the next width; the matmul's tests in test_exact_core.py
# run the same bounds
@pytest.mark.parametrize("bits", (6, 7, 8, 15, 16, 30, 31, 32, 62, 63, 64, 71, 72, 100, 200))
def test_packed_product_across_slot_widths_with_negative_entries(rng, bits):
    # entries up to 2^bits in absolute value, both signs: the slots run
    # from one byte to far wider than the 64-bit C type, and every slot
    # of a spec that is all -2^bits must borrow correctly
    for k in (1, 2, 3, 7, 12):
        top = 1 << bits
        a = tuple(rng.randint(-top, top) for _ in range(k))
        b = tuple(Fraction(rng.randint(-top, top), rng.randint(1, 7)) for _ in range(k))
        assert circulant_product(a, b) == _ref_cyclic(a, b)
        extreme = (-top,) * k
        assert circulant_product(extreme, extreme) == (k * top * top,) * k
        assert circulant_product(extreme, (top,) + (0,) * (k - 1)) == (-top * top,) * k
    # the bound exactly: bound = 2^(bits-1) = edge, reached by the specs'
    # own entries (k = 1) and by the middle slot of the linear convolution
    # (k = 2), with both signs
    edge = 1 << (bits - 1)
    half = edge // 2
    for sign in (1, -1):
        assert circulant_product((1,), (sign * edge,)) == (sign * edge,)
        assert circulant_product((sign,), (-edge,)) == (-sign * edge,)
        assert circulant_product((1, sign), (half, sign * half)) == (2 * half, sign * 2 * half)


def test_packed_product_is_not_symmetric_in_the_fold():
    # a non-symmetric pair: the fold must add slot j + k onto slot j, so
    # the spec of a shift by one right-shifts the other spec
    shift = (0, 1, 0, 0)
    assert circulant_product(shift, (1, 2, 3, 4)) == (4, 1, 2, 3)
    assert circulant_product((1, 2, 3, 4), (5, -6, 7, 8)) == _ref_cyclic((1, 2, 3, 4), (5, -6, 7, 8))


# -- the spec algebra: Circulant and Bordered ---------------------------------


def _random_circulant(rng, k):
    return Circulant([random_fraction(rng) for _ in range(k)])


def _random_bordered(rng, k):
    # unequal row and column borders and four unrelated, non-symmetric blocks
    return Bordered(
        random_fraction(rng),
        (random_fraction(rng), random_fraction(rng)),
        (random_fraction(rng), random_fraction(rng)),
        tuple(tuple(_random_circulant(rng, k) for _ in range(2)) for _ in range(2)),
    )


def _assert_canonical(*elements):
    # the shared store: a positive denominator with no factor in common
    # with the integers, and denominator 1 for zero
    for z in elements:
        assert z._den > 0 and math.gcd(z._den, *z._ints) == 1, z
        if z.is_zero():
            assert z._den == 1, z


def _assert_algebra_matches_dense(x, y):
    dx, dy = x.dense(), y.dense()
    _assert_canonical(x, y, dx, dy)
    c, d = Fraction(-3, 7), Fraction(-5, 2)
    results = [
        (x @ y, dx @ dy),
        (y @ x, dy @ dx),
        (x + y, dx + dy),
        (x - y, dx - dy),
        (-x, -dx),
        (c * x, c * dx),
        (y * d, dy * d),
        (x * 2, dx * 2),
        (x * 0, dx * 0),
        (0 * y, 0 * dy),
        (x - x, dx - dx),
    ]
    for got, want in results:
        assert got.dense() == want
        _assert_canonical(got, want, got.dense())
    assert (x == y) == (dx == dy)
    assert x == x * 1 and x - x == 0 * x
    assert (x - x).is_zero() and (x - x).dense().is_zero()
    assert x.is_zero() == dx.is_zero()


@pytest.mark.parametrize("k", range(1, 13))
def test_circulant_algebra_matches_dense_ratmatrix(rng, k):
    for _ in range(4):
        x, y = _random_circulant(rng, k), _random_circulant(rng, k)
        assert x.dense() == materialize(x.spec)
        _assert_algebra_matches_dense(x, y)
        assert (x @ y).spec == circulant_product(x.spec, y.spec)


@pytest.mark.parametrize("k", range(1, 13))
def test_bordered_algebra_matches_dense_ratmatrix(rng, k):
    for _ in range(4):
        x, y = _random_bordered(rng, k), _random_bordered(rng, k)
        assert x.dense().rows == x.order == 2 * k + 1
        _assert_algebra_matches_dense(x, y)
    # zero borders and hub, or zero blocks: each term of the product alone
    zeros = ((Circulant((0,) * k),) * 2,) * 2
    only_blocks = Bordered(0, (0, 0), (0, 0), _random_bordered(rng, k).blocks)
    only_borders = Bordered(random_fraction(rng), (1, -2), (Fraction(1, 3), 5), zeros)
    for x in (only_blocks, only_borders):
        for y in (only_blocks, only_borders):
            _assert_algebra_matches_dense(x, y)


def test_bordered_circulant_and_bordered_share_the_layout(rng):
    for k in range(1, 8):
        hub, b1, b2 = (random_fraction(rng) for _ in range(3))
        p, q, r = (tuple(random_fraction(rng) for _ in range(k)) for _ in range(3))
        blocks = ((Circulant(p), Circulant(q)), (Circulant(q[:1] + q[:0:-1]), Circulant(r)))
        x = Bordered(hub, (b1, b2), (b1, b2), blocks)
        assert x.dense() == bordered_circulant(hub, (b1, b2), (p, q, r))
        assert (x.hub, x.rows, x.cols, x.blocks) == (hub, (b1, b2), (b1, b2), blocks)


def test_mixed_operands_are_refused():
    x, y = Circulant((1, 2)), Circulant((1, 2, 3))
    with pytest.raises(ValueError, match="order"):
        x @ y
    with pytest.raises(ValueError, match="order"):
        x + y
    b = Bordered(1, (0, 0), (0, 0), ((x, x), (x, x)))
    with pytest.raises(TypeError):
        b @ x
    with pytest.raises(TypeError):
        x + b
    assert x != b and x != x.dense()
    # a dense matrix on either side of a structured element of its order
    for element in (x, b):
        for left, right in ((element.dense(), element), (element, element.dense())):
            for op in (operator.add, operator.sub, operator.matmul):
                with pytest.raises(TypeError):
                    op(left, right)
            assert left != right and not left == right
    with pytest.raises(ValueError, match="nonempty"):
        Circulant(())
    with pytest.raises(ValueError, match="specs of length"):
        Bordered(1, (0, 0), (0, 0), ((x, x), (x, y)))
    with pytest.raises(TypeError, match="exact scalar"):
        Circulant((1, 0.5))


def test_equal_elements_hash_equal_and_work_as_set_members(rng):
    # equal values built from different but equal specs or by different
    # operations have one storage, so one hash
    for k in (1, 2, 5):
        spec = [random_fraction(rng) for _ in range(k)]
        builds = [
            Circulant(spec),
            Circulant(tuple(v.numerator if v.denominator == 1 else v for v in spec)),
            Circulant([6 * v for v in spec]) * Fraction(1, 6),
            -(-Circulant(spec)),
            lift(Circulant, materialize(spec))[0],
        ]
        assert len({hash(z) for z in builds}) == 1
        assert len(set(builds)) == 1
        x = _random_bordered(rng, k)
        same = [(x + x) * Fraction(1, 2), -(-x), lift(Bordered, x.dense())[0]]
        assert all(z == x and hash(z) == hash(x) for z in same)
        assert len({x, *same}) == 1
        assert len({builds[0], builds[0].dense(), x, x.dense()}) == 4
    assert hash(Circulant((1, 2, 3))) == hash(Circulant((Fraction(1), 2, Fraction(6, 2))))


@pytest.mark.parametrize("k", range(1, 13))
def test_lift_round_trips(rng, k):
    x, y = _random_circulant(rng, k), _random_circulant(rng, k)
    assert lift(Circulant, x.dense(), y.dense()) == [x, y]
    b, c = _random_bordered(rng, k), _random_bordered(rng, k)
    assert lift(Bordered, b.dense(), c.dense()) == [b, c]
    # one call may mix orders: each matrix is read on its own
    z, e = _random_circulant(rng, 2 * k + 1), _random_bordered(rng, k + 1)
    assert lift(Circulant, x.dense(), z.dense(), y.dense()) == [x, z, y]
    assert lift(Bordered, b.dense(), e.dense()) == [b, e]


def _with_entry_changed(m, i, j):
    rows = m.to_lists()
    rows[i][j] += 1
    return RatMatrix.from_rows(rows)


@pytest.mark.parametrize("k", range(2, 9))
def test_lift_refuses_a_matrix_with_one_entry_changed(rng, k):
    b = _random_bordered(rng, k)
    m = b.dense()
    # the hub is one free entry: a changed hub is read as the new hub
    unit_hub = Bordered(1, (0, 0), (0, 0), ((Circulant((0,) * k),) * 2,) * 2)
    assert lift(Bordered, _with_entry_changed(m, 0, 0)) == [b + unit_hub]
    # any entry of either border, or of any of the four blocks, breaks the form
    places = {
        "row border 1": (0, rng.randint(1, k)),
        "row border 2": (0, rng.randint(k + 1, 2 * k)),
        "column border 1": (rng.randint(1, k), 0),
        "column border 2": (rng.randint(k + 1, 2 * k), 0),
    }
    for bi in (0, 1):
        for bj in (0, 1):
            i, j = 1 + bi * k + rng.randrange(k), 1 + bj * k + rng.randrange(k)
            places[f"block {bi}{bj}"] = (i, j)
    for label, (i, j) in places.items():
        changed = _with_entry_changed(m, i, j)
        for args in ((changed,), (changed, m), (m, changed)):
            assert lift(Bordered, *args) is None, label
    # a circulant with one entry changed, and a non-square or empty matrix,
    # lift to neither form, alone or beside a matrix that lifts
    x = _random_circulant(rng, 2 * k).dense()
    assert lift(Circulant, x, _with_entry_changed(x, rng.randrange(2 * k), rng.randrange(2 * k))) is None
    for form, good in ((Circulant, x), (Bordered, m)):
        assert lift(form, good) is not None
        for bad in (RatMatrix.zeros(k, k + 1), RatMatrix.zeros(0, 0)):
            assert lift(form, bad) is None and lift(form, good, bad) is None


def test_lift_takes_the_form_it_is_asked_for():
    # the identity of order 3 is both a circulant and a bordered element
    ident = RatMatrix.identity(3)
    one, zero = Circulant((1,)), Circulant((0,))
    assert lift(Circulant, ident) == [Circulant((1, 0, 0))]
    assert lift(Bordered, ident) == [Bordered(1, (0, 0), (0, 0), ((one, zero), (zero, one)))]
    # a bordered element that is no circulant, and a circulant of even
    # order, which no bordered element has, lift only to their own form
    other = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert [x.dense() for x in lift(Bordered, ident, other)] == [ident, other]
    assert lift(Circulant, ident, other) is None
    even = materialize((1, 2, 3, 4))
    assert lift(Circulant, even) == [Circulant((1, 2, 3, 4))]
    assert lift(Bordered, even) is None and lift(Bordered, ident, even) is None


# -- delta symmetry -----------------------------------------------------------


def test_is_delta_examples():
    assert materialize((5, 1, 2, 2, 1)).is_symmetric()
    assert not materialize((5, 1, 2, 3, 1)).is_symmetric()


def test_odd_case_rim_spec_is_delta():
    assert make_odd_case(9).rim_block.dense().is_symmetric()


def test_delta_vector_validates():
    assert not materialize((Fraction(1), Fraction(2), Fraction(3))).is_symmetric()


def test_delta_materializations_are_symmetric():
    for vec in (
        make_odd_case(9).rim_block.spec,
        make_odd_case(9).coupling_block.spec,
        make_even_case(8).rim_block.spec,
        cycle_signless_laplacian_spec(8),
        rim_distance_spec(8),
    ):
        assert materialize(vec).is_symmetric()


def test_delta_closure_constant_vector():
    z = (Fraction(1),) * 6
    g = tuple(map(Fraction, (7, -3, 0, 0, 0, -3)))
    assert materialize(circulant_product(z, g)).is_symmetric()


def test_delta_closure_random_pairs(rng):
    for _ in range(40):
        k = rng.randint(4, 10)
        z = random_delta_vector(rng, k)
        alpha, beta = random_fraction(rng), random_fraction(rng)
        first = [alpha, beta] + [Fraction(0)] * (k - 3) + [beta]
        assert materialize(circulant_product(z, tuple(first))).is_symmetric()


def test_delta_closure_even_rim_spec_against_s():
    n = 8
    data = make_even_case(n)
    s = cycle_signless_laplacian_spec(n - 1)
    assert materialize(circulant_product(data.rim_block.spec, s)).is_symmetric()


def test_delta_closure_rejects_bad_pattern():
    # the closure needs g's pattern (a, b, 0, ..., 0, b): for this delta z,
    # z'G is g itself, whose tail (2, 3, 0, 2) is not a palindrome
    z = (Fraction(1),) + (Fraction(0),) * 4
    g = tuple(map(Fraction, (1, 2, 3, 0, 2)))
    assert materialize(z).is_symmetric()
    assert not materialize(circulant_product(z, g)).is_symmetric()


# -- spectra -------------------------------------------------------------------


def test_eigenvalues_of_scalar_spec():
    # a scalar spec is that scalar times I: every eigenvalue is 7/2
    spec = (Fraction(7, 2), Fraction(0), Fraction(0))
    assert materialize(spec) == Fraction(7, 2) * RatMatrix.identity(3)


def test_eigenvalues_of_signless_laplacian_n7():
    # S is symmetric, so S(S - I)(S - 3I)(S - 4I) = 0 puts its spectrum in
    # {0, 1, 3, 4}, and the nullities of S - tI give the multiplicities
    # 1, 2, 2, 1 of the spectrum {0, 1, 1, 3, 3, 4}
    s = materialize(cycle_signless_laplacian_spec(6))
    ident = RatMatrix.identity(6)
    assert (s @ (s - ident) @ (s - 3 * ident) @ (s - 4 * ident)).is_zero()
    nullities = [6 - rank(s - t * ident) for t in (0, 1, 3, 4)]
    assert nullities == [1, 2, 2, 1]


def test_eigenvalues_of_coupling_spec_n7():
    # B^2 = -B puts the spectrum in {0, -1}; rank(B + I) = 1 leaves one 0
    b = make_odd_case(7).coupling_block.dense()
    assert b @ b == -b
    assert rank(b + RatMatrix.identity(6)) == 1
    assert rank(b) == 5


@given(specs(max_len=12))
def test_eigenvalues_match_dense_eigensolver(spec):
    # e is the Fourier vector f_0, with eigenvalue the spec's sum; for an
    # even order the alternating vector is f_(k/2), with eigenvalue the
    # spec's alternating sum
    c = materialize(spec)
    k = len(spec)
    e = (Fraction(1),) * k
    assert c.mul_vector(e) == tuple(sum(spec) * x for x in e)
    if k % 2 == 0:
        v = alternating_signs(k)
        alt = sum(x * sign for x, sign in zip(spec, v))
        assert c.mul_vector(v) == tuple(alt * x for x in v)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_signless_laplacian_kernel_for_odd_n(n):
    s = materialize(cycle_signless_laplacian_spec(n - 1))
    v = alternating_signs(n - 1)
    assert all(x == 0 for x in s.mul_vector(v))
    assert rank(s) == n - 2


# -- tridiagonal comparison matrix ---------------------------------------------


def _tridiagonal_211(k: int) -> RatMatrix:
    """The rim signless Laplacian (2,1,0,...,0,1) of order k with its two
    corner entries removed: 2 on the diagonal, 1 on both off-diagonals."""
    return RatMatrix(
        k,
        k,
        (
            2 if i == j else (1 if abs(i - j) == 1 else 0)
            for i in range(k)
            for j in range(k)
        ),
    )


def test_tridiagonal_det_small_cases():
    assert determinant(_tridiagonal_211(1)) == 2
    assert determinant(_tridiagonal_211(2)) == 3
    assert determinant(_tridiagonal_211(5)) == 6


@pytest.mark.parametrize("k", range(1, 13))
def test_tridiagonal_det_is_k_plus_one(k):
    # Expanding along the first row gives d_k = 2 d_(k-1) - d_(k-2),
    # d_0 = 1, d_1 = 2, so d_k = k + 1.
    assert determinant(_tridiagonal_211(k)) == k + 1
