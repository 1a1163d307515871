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
from helmlab.characterization import _bordered_projector, _kernel_basis, _twice_projector
from helmlab.circulant import Bordered, Circulant, _convolution_sum, bordered_circulant, lift
from support import from_blocks, random_delta_vector, random_fraction

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
    assert s.mul_vector((1,) * 6) == tuple([4] * 6)
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
        e_row, e_col = RatMatrix.from_rows([[1] * k]), RatMatrix.from_rows([[1]] * k)
        want = from_blocks(
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


@pytest.mark.parametrize("k", range(1, 13))
def test_grouped_convolution_sums_match_one_call_per_group(rng, k):
    # seeded groups of one to three pairs, with zero specs and a group of
    # extreme specs whose middle slot reaches the shared bound exactly
    def spec(top):
        return tuple(rng.randint(-top, top) for _ in range(k))

    for _ in range(6):
        top = 1 << rng.choice((3, 7, 15, 31, 63, 80))
        groups = [
            [(spec(top), spec(rng.choice((1, top)))) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 4))
        ]
        groups.append([((0,) * k, spec(top))])
        extreme = (-top,) * k
        groups.insert(rng.randrange(len(groups) + 1), [(extreme, extreme)] * max(map(len, groups)))
        got = _convolution_sum(groups)
        assert got == [_convolution_sum([g])[0] for g in groups]
        for group, sums in zip(groups, got):
            assert tuple(sums) == tuple(map(sum, zip(*[_ref_cyclic(a, b) for a, b in group])))
    assert _convolution_sum([[((0,) * k, (0,) * k)]] * 2) == [[0] * k] * 2


# -- the spec algebra: Circulant and Bordered ---------------------------------


def _random_circulant(rng, k):
    return Circulant([random_fraction(rng) for _ in range(k)])


def _random_specs(rng, k):
    return tuple(tuple(random_fraction(rng) for _ in range(k)) for _ in range(4))


def _random_bordered(rng, k):
    # unequal row and column borders and four unrelated, non-symmetric blocks
    return Bordered(
        random_fraction(rng),
        (random_fraction(rng), random_fraction(rng)),
        (random_fraction(rng), random_fraction(rng)),
        _random_specs(rng, k),
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
    zeros = ((0,) * k,) * 4
    only_blocks = Bordered(0, (0, 0), (0, 0), _random_specs(rng, k))
    only_borders = Bordered(random_fraction(rng), (1, -2), (Fraction(1, 3), 5), zeros)
    for x in (only_blocks, only_borders):
        for y in (only_blocks, only_borders):
            _assert_algebra_matches_dense(x, y)


@pytest.mark.parametrize("k", range(1, 9))
def test_dense_layouts_need_no_reduction_pass(rng, k):
    # dense() reduces nothing: every integer of a canonical element
    # appears in its layout, so the layout already has the storage of the
    # matrix rebuilt from its reduced Fraction entries
    zeros = ((0,) * k,) * 4
    elements = [Circulant((0,) * k), Bordered(0, (0, 0), (0, 0), zeros)]
    for _ in range(6):
        elements += [_random_circulant(rng, k), _random_bordered(rng, k)]
    elements += [Bordered(Fraction(1, 6), (0, 0), (0, 0), zeros), Circulant((Fraction(2, 3),) + (0,) * (k - 1))]
    assert any(x._den > 1 for x in elements)
    for x in elements:
        m = x.dense()
        fresh = RatMatrix.from_rows(m.to_lists())
        assert (m._den, m._ints) == (fresh._den, fresh._ints), x
        _assert_canonical(m)


def test_bordered_circulant_and_bordered_share_the_layout(rng):
    for k in range(1, 8):
        hub, b1, b2 = (random_fraction(rng) for _ in range(3))
        p, q, r = (tuple(random_fraction(rng) for _ in range(k)) for _ in range(3))
        specs = (p, q, q[:1] + q[:0:-1], r)
        x = Bordered(hub, (b1, b2), (b1, b2), specs)
        assert x.dense() == bordered_circulant(hub, (b1, b2), (p, q, r))
        p, q, t, r = map(Circulant, specs)
        assert (x.hub, x.rows, x.cols, x.blocks) == (hub, (b1, b2), (b1, b2), ((p, q), (t, r)))


def test_mixed_operands_are_refused():
    x, y = Circulant((1, 2)), Circulant((1, 2, 3))
    with pytest.raises(ValueError, match="order"):
        x @ y
    with pytest.raises(ValueError, match="order"):
        x + y
    b = Bordered(1, (0, 0), (0, 0), ((1, 2),) * 4)
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
        Bordered(1, (0, 0), (0, 0), ((1, 2), (1, 2), (1, 2), (1, 2, 3)))
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
        ]
        assert len({hash(z) for z in builds}) == 1
        assert len(set(builds)) == 1
        x = _random_bordered(rng, k)
        same = [(x + x) * Fraction(1, 2), -(-x), lift(x.dense())]
        assert all(z == x and hash(z) == hash(x) for z in same)
        assert len({x, *same}) == 1
        assert len({builds[0], builds[0].dense(), x, x.dense()}) == 4
    assert hash(Circulant((1, 2, 3))) == hash(Circulant((Fraction(1), 2, Fraction(6, 2))))


@pytest.mark.parametrize("k", range(1, 13))
def test_lift_round_trips(rng, k):
    b, c = _random_bordered(rng, k), _random_bordered(rng, k)
    assert lift(b.dense()) == b
    assert lift(c.dense()) == c
    # the order is read off each matrix
    e = _random_bordered(rng, k + 1)
    assert lift(e.dense()) == e


def _with_entry_changed(m, i, j):
    rows = m.to_lists()
    rows[i][j] += 1
    return RatMatrix.from_rows(rows)


@pytest.mark.parametrize("k", range(2, 9))
def test_lift_refuses_a_matrix_with_one_entry_changed(rng, k):
    b = _random_bordered(rng, k)
    m = b.dense()
    # the hub is one free entry: a changed hub is read as the new hub
    unit_hub = Bordered(1, (0, 0), (0, 0), ((0,) * k,) * 4)
    assert lift(_with_entry_changed(m, 0, 0)) == b + unit_hub
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
        assert lift(_with_entry_changed(m, i, j)) is None, label
    assert lift(m) == b
    # a non-square or empty matrix does not lift
    for bad in (RatMatrix.zeros(k, k + 1), RatMatrix.zeros(0, 0)):
        assert lift(bad) is None


def _lift_by_layout(m):
    """lift's reference: the element read off m, kept only when its
    laid-out dense() equals m."""
    n, e = m.rows, m._ints
    if m.cols != n or n < 3 or n % 2 == 0:
        return None
    k = (n - 1) // 2
    top, low = n + 1, (k + 1) * n + 1
    scalars = [e[0], e[1], e[k + 1], e[n], e[(k + 1) * n]]
    element = Bordered._reduced(m._den, scalars + [*e[top : top + 2 * k], *e[low : low + 2 * k]])
    return element if element.dense() == m else None


@pytest.mark.parametrize("k", range(2, 13))
def test_lift_refuses_off_shape_matrices_that_agree_with_the_read_entries(rng, k):
    # every matrix here has the element's first row, first column and
    # block first rows, so the element read off it is b; it differs only
    # in entries that the read leaves out
    b = _random_bordered(rng, k)
    rows = b.dense().to_lists()
    pendant = [row[:] for row in rows]
    for i in range(k + 2, 2 * k + 1):
        for j in range(k + 1, 2 * k + 1):
            pendant[i][j] += rng.randint(1, 3)
    moved = {
        # a row border entry past the read ones, or a column border entry
        "border": (0, rng.choice([j for j in range(2, 2 * k + 1) if j != k + 1]))
        if rng.random() < 0.5
        else (rng.choice([i for i in range(2, 2 * k + 1) if i != k + 1]), 0),
        # an entry of a block row below the block's first row
        "rotation": (
            1 + rng.randrange(2) * k + rng.randrange(1, k),
            1 + rng.randrange(2) * k + rng.randrange(k),
        ),
    }
    off_shape = {"pendant block": RatMatrix.from_rows(pendant)}
    for label, (i, j) in moved.items():
        off_shape[label] = _with_entry_changed(b.dense(), i, j)
    for label, m in off_shape.items():
        assert lift(m) is None and _lift_by_layout(m) is None, label
    for x in (b, b * Fraction(1, 6), b - b, _random_bordered(rng, k) * 4):
        assert lift(x.dense()) == _lift_by_layout(x.dense()) == x
        _assert_canonical(lift(x.dense()))


def test_lift_reads_the_bordered_form_of_odd_orders_only():
    # every matrix of order 3 is a bordered element, circulant or not
    ident = RatMatrix.identity(3)
    assert lift(ident) == Bordered(1, (0, 0), (0, 0), ((1,), (0,), (0,), (1,)))
    other = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert lift(other).dense() == other
    # a circulant of even order has no bordered form
    assert lift(materialize((1, 2, 3, 4))) is None


# -- the element matrix-vector product and the element 2 P_K -------------------


def _block_vector(x0, x1, x2, k):
    return (x0,) + (x1,) * k + (x2,) * k


def _assert_mat_vec_matches_dense(x, vectors):
    m = x.dense()
    for v in vectors:
        ints, den = x._mat_vec(v)
        assert den > 0
        assert tuple([Fraction(i, den) for i in ints]) == m.mul_vector(v), (x, v)


@pytest.mark.parametrize("k", range(1, 13))
def test_bordered_mat_vec_matches_the_dense_mat_vec(rng, k):
    # non-symmetric grids with unequal borders, denominators above 1 and
    # the zero element, against block-constant vectors (spec sums) and
    # general ones (packed correlations), a vector constant on one block
    # only among them
    n = 2 * k + 1
    zeros = ((0,) * k,) * 4
    elements = [Bordered(0, (0, 0), (0, 0), zeros)] + [_random_bordered(rng, k) for _ in range(4)]
    elements.append(Bordered(0, (0, 0), (0, 0), _random_specs(rng, k)))
    assert any(x._den > 1 for x in elements)
    r = lambda: random_fraction(rng)  # noqa: E731
    vectors = [(0,) * n, (1,) * n, _block_vector(r(), r(), r(), k), _block_vector(0, 2, -3, k)]
    vectors += [tuple(r() for _ in range(n)) for _ in range(3)]
    vectors.append(tuple(rng.randint(-50, 50) for _ in range(n)))
    vectors.append((r(),) + (r(),) * k + tuple(r() for _ in range(k)))
    for x in elements:
        _assert_mat_vec_matches_dense(x, vectors)
    with pytest.raises(ValueError, match="vector length"):
        elements[1]._mat_vec((1,) * (n + 1))


@pytest.mark.parametrize("k", range(1, 13))
def test_bordered_is_symmetric_matches_the_dense_test(rng, k):
    p, t = random_delta_vector(rng, k), random_delta_vector(rng, k)
    q = tuple(random_fraction(rng) for _ in range(k))
    b1, b2 = random_fraction(rng), random_fraction(rng)
    symmetric = lift(bordered_circulant(random_fraction(rng), (b1, b2), (p, q, t)))
    assert symmetric.is_symmetric() and symmetric.dense().is_symmetric()
    _assert_mat_vec_matches_dense(symmetric, [tuple(random_fraction(rng) for _ in range(2 * k + 1))])
    # a changed border, Q, P or T; P and T stay symmetric for k <= 2,
    # where every spec is delta-symmetric
    zero, one, last = (0,) * k, (1,) + (0,) * (k - 1), (0,) * (k - 1) + (1,)
    for x, always in (
        (_random_bordered(rng, k), False),
        (symmetric + Bordered(0, (1, 0), (0, 0), (zero,) * 4), True),
        (symmetric + Bordered(0, (0, 0), (0, 0), (zero, one, zero, zero)), True),
        (symmetric + Bordered(0, (0, 0), (0, 0), (last, zero, zero, zero)), False),
        (symmetric + Bordered(0, (0, 0), (0, 0), (zero, zero, zero, last)), False),
    ):
        assert x.is_symmetric() == x.dense().is_symmetric()
        if always or k > 2:
            assert not x.is_symmetric()


def _on_blocks(k, hub=0, rim=None, pendants=None):
    """The vector of order 2k+1 with the given hub entry and rim and pendant parts."""
    zero = (0,) * k
    return (hub,) + tuple(rim or zero) + tuple(pendants or zero)


def _periodic(k, period, pattern):
    return tuple(pattern[i % period] for i in range(k))


def _assert_projector_lifts(kernel, order):
    basis = _kernel_basis(kernel, order)
    got = _bordered_projector(basis, order)
    assert got == lift(_twice_projector(basis, order)), kernel
    return got


@pytest.mark.parametrize("k", range(1, 13))
def test_element_twice_projector_is_the_lifted_dense_one(rng, k):
    # 2 P_K as an element equals lift(2 P_K): the element when the span
    # is invariant under the rotation of rim and pendants, None otherwise
    order = 2 * k + 1
    r = lambda: random_fraction(rng)  # noqa: E731
    bordered = [
        (),
        [_block_vector(1, 1, 0, k)],
        [_block_vector(1 + abs(r()), 1, r(), k), _block_vector(0, 1, -1, k)],
    ]
    if k % 2 == 0:
        v = alternating_signs(k)
        bordered += [
            [_on_blocks(k, rim=v)],
            [_on_blocks(k, rim=v, pendants=[3 * x for x in v]), _block_vector(1, 0, 2, k)],
        ]
    # every matrix of order 3 is bordered
    not_bordered = [
        [_on_blocks(k, rim=(1,) + (0,) * (k - 1))],
        [tuple(r() for _ in range(order))],
        [tuple(r() for _ in range(order)), _block_vector(1, 1, 1, k)],
    ] if k > 1 else []
    for kernel in bordered:
        assert _assert_projector_lifts(kernel, order) is not None, kernel
    for kernel in not_bordered:
        assert _assert_projector_lifts(kernel, order) is None, kernel


@pytest.mark.parametrize("k, period", [(3, 3), (4, 4), (6, 3), (8, 4), (9, 3), (12, 4), (12, 3)])
def test_a_fourier_pair_has_a_bordered_projector_though_neither_outer_product_is(rng, k, period):
    # two rational vectors spanning the Fourier modes of order period (its
    # two conjugate modes) are turned into combinations of each other, so
    # their span is invariant and 2 P_K is bordered, while neither
    # projector onto one of them is; a non-orthogonal basis of the same
    # span gives the same element, and the pair may sit on the rim, on
    # the pendants or on both
    order = 2 * k + 1
    if period == 3:
        f, g = _periodic(k, 3, (1, -1, 0)), _periodic(k, 3, (0, 1, -1))
    else:
        f, g = _periodic(k, 4, (1, 0, -1, 0)), _periodic(k, 4, (0, 1, 0, -1))
    c = random_fraction(rng) or Fraction(1)
    for u1, u2 in [
        (_on_blocks(k, rim=f), _on_blocks(k, rim=g)),
        (_on_blocks(k, pendants=f), _on_blocks(k, pendants=g)),
        (_on_blocks(k, rim=f, pendants=[c * x for x in f]), _on_blocks(k, rim=g, pendants=[c * x for x in g])),
    ]:
        for single in (u1, u2):
            assert _assert_projector_lifts([single], order) is None
        pair = _assert_projector_lifts([u1, u2], order)
        assert pair is not None
        skew = [u1, tuple([x + 2 * y for x, y in zip(u1, u2)])]
        assert _assert_projector_lifts(skew, order) == pair
        # with a block-constant vector beside the pair
        assert _assert_projector_lifts([u1, u2, _block_vector(1, 1, 0, k)], order) is not None
    # one vector from each of two pairs spans no invariant space
    if k == 12 and period == 3:
        h = _on_blocks(k, rim=_periodic(k, 4, (1, 0, -1, 0)))
        assert _assert_projector_lifts([_on_blocks(k, rim=f), h], order) is None


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
