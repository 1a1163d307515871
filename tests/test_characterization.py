"""Decomposition characterization, kernel projector, PSD and rank of L."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helmlab import (
    Decomposition,
    InertiaTriple,
    RatMatrix,
    VerificationError,
    alternating_signs,
    bfs_distance_matrix,
    build_kernel_projector,
    check_conditions_i_vi,
    check_equiv_formulation,
    check_uniqueness,
    closed_form_mp_inverse,
    correction_matrix,
    cycle_signless_laplacian_spec,
    helm_distance_block,
    inertia,
    inverse,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    null_space_basis,
    penrose_check,
    pseudoinverse,
    rank,
    rank_l_check,
    schur_psd_check,
    solve,
)
from helmlab.characterization import SixConditions, _twice_projector
from helmlab.circulant import Circulant
from helmlab.closed_form import _helm_case
from helmlab.exact_core import dot, ones_vector, scale_vector
from support import (
    bump_l,
    env_seed,
    helm_decomposition,
    random_delta_vector,
    random_fraction,
    random_symmetric,
)

ODD_RANGE = (5, 7, 9, 11, 13)
EVEN_RANGE = (4, 6, 8, 10, 12)


def _kernel_vector(n: int) -> tuple[Fraction, ...]:
    """(0, v', 0')' with v alternating +1/-1 around the rim, for odd n."""
    k = n - 1
    return (Fraction(0),) + alternating_signs(k) + (Fraction(0),) * k


# -- equiv formulation ------------------------------------------------------


def _certify(d, dec, kernel) -> bool:
    """check_equiv_formulation with W = L D + 2I - 2we' built from d and dec."""
    return check_equiv_formulation(d, dec, kernel, correction_matrix(d, dec))


@pytest.mark.parametrize("n", (6, 7))
def test_equiv_formulation_certifies_the_helm_triple(n):
    d, dec = helm_distance_block(n), helm_decomposition(n)
    assert _certify(d, dec, make_w_alpha(n).kernel)
    assert penrose_check(d, dec.candidate)


def test_equiv_formulation_rejects_perturbed_alpha():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    wrong = Decomposition(dec.laplacian_like, dec.w, 2 * dec.alpha)
    assert not _certify(d, wrong, make_w_alpha(7).kernel)


@pytest.mark.parametrize("n", (6, 7))
def test_equiv_formulation_rejects_perturbed_l(n):
    # the helm w and alpha keep D w = e/alpha, so only the kernel's
    # products and W = 2 P_K can reject the bumped L
    d, dec = helm_distance_block(n), helm_decomposition(n)
    bumped = Decomposition(bump_l(dec.laplacian_like), dec.w, dec.alpha)
    assert d.mul_vector(bumped.w) == scale_vector(1 / bumped.alpha, ones_vector(d.rows))
    assert not _certify(d, bumped, make_w_alpha(n).kernel)
    assert not penrose_check(d, bumped.candidate)


@pytest.mark.parametrize("n", (6, 7))
def test_equiv_formulation_rejects_an_l_bump_that_keeps_every_vector_identity(n):
    # b = e_1 - e_3 joins two rim vertices of the same sign in v, so b is
    # orthogonal to the kernel vector: the bumped X still has X u = 0, and
    # D w = e/alpha and D u = 0 do not see L, so W = 2 P_K alone rejects
    d, dec = helm_distance_block(n), helm_decomposition(n)
    kernel = make_w_alpha(n).kernel
    b = (0, 1, 0, -1) + (0,) * (d.rows - 4)
    lap = dec.laplacian_like + Fraction(1, 3) * RatMatrix.outer(b, b)
    bumped = Decomposition(lap, dec.w, dec.alpha)
    assert all(not any(bumped.candidate.mul_vector(u)) for u in kernel)
    assert not _certify(d, bumped, kernel)
    assert not penrose_check(d, bumped.candidate)


def test_equiv_formulation_rejects_an_empty_kernel_for_odd_n():
    # D w = e/alpha still holds, but W = 2vv'/(n-1) on the rim is not 0
    d, dec = helm_distance_block(7), helm_decomposition(7)
    assert not _certify(d, dec, ())


def test_equiv_formulation_rejects_a_kernel_vector_with_a_flipped_sign():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    u = list(make_w_alpha(7).kernel[0])
    u[1] = -u[1]
    assert any(d.mul_vector(u))
    assert not _certify(d, dec, [tuple(u)])


def test_equiv_formulation_rejects_a_spurious_kernel_vector_for_even_n():
    # D is nonsingular for even n: no nonzero vector passes D u = 0
    n = 6
    d, dec = helm_distance_block(n), helm_decomposition(n)
    assert make_w_alpha(n).kernel == ()
    assert not _certify(d, dec, [_kernel_vector(n)])


def test_equiv_formulation_needs_d_u_zero():
    # D = I and u = (1, -1, 0)': X = I - uu'/2 = -L/2 + 3 ww' with
    # w = e/3 passes D w = e/alpha, X u = 0 and W = 2(I - X) = 2 P_K, but
    # X is not D+ = I; only D u != 0 shows that u is no kernel vector
    ident = RatMatrix.identity(3)
    u = (Fraction(1), Fraction(-1), Fraction(0))
    x = ident - Fraction(1, 2) * RatMatrix.outer(u, u)
    w = (Fraction(1, 3),) * 3
    dec = Decomposition(-2 * (x - 3 * RatMatrix.outer(w, w)), w, 3)
    assert dec.candidate == x
    assert correction_matrix(ident, dec) == RatMatrix.outer(u, u)
    assert not any(x.mul_vector(u))
    assert not _certify(ident, dec, [u])
    assert not penrose_check(ident, x)


@pytest.mark.parametrize("factor", (1, 2, Fraction(-1, 3)))
def test_equiv_formulation_refuses_dependent_kernel_vectors(factor):
    d, dec = helm_distance_block(7), helm_decomposition(7)
    u = make_w_alpha(7).kernel[0]
    with pytest.raises(ValueError, match="linearly dependent"):
        _certify(d, dec, [u, scale_vector(factor, u)])


def test_equiv_formulation_refuses_a_kernel_vector_of_another_order():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    with pytest.raises(ValueError, match="length 11"):
        _certify(d, dec, [_kernel_vector(6)])


@pytest.mark.parametrize("bump", (False, True))
@pytest.mark.parametrize("n", (6, 7))
def test_l_d_witness_form_follows_from_d_w(n, bump):
    # D w = e/alpha gives X D = -L D/2 + w e' for every L, so
    # W = L D + 2I - 2we' = 2(I - X D) holds whether or not X is the MP inverse
    d, dec = helm_distance_block(n), helm_decomposition(n)
    lap = bump_l(dec.laplacian_like) if bump else dec.laplacian_like
    dec = Decomposition(lap, dec.w, dec.alpha)
    ident = RatMatrix.identity(d.rows)
    assert correction_matrix(d, dec) == 2 * (ident - dec.candidate @ d)


def test_equiv_formulation_hypothesis_failure():
    # row sums of 2I - (2/n)J are zero, so the all-ones vector spans the
    # kernel and is orthogonal to the range: D w = e/alpha has no
    # solution, and the first witness identity fails
    n = 5
    toy = 2 * RatMatrix.identity(n) - Fraction(2, n) * RatMatrix.ones(n, n)
    small = Decomposition(
        RatMatrix.zeros(n, n),
        (Fraction(1),) + (Fraction(0),) * (n - 1),
        Fraction(1),
    )
    assert _certify(toy, small, [ones_vector(n)]) is False


def test_equiv_formulation_requires_symmetry():
    m = RatMatrix.from_rows([[1, 2], [0, 1]])
    dec = Decomposition(
        RatMatrix.zeros(2, 2), (Fraction(1, 2), Fraction(1, 2)), Fraction(1)
    )
    with pytest.raises(ValueError, match="symmetric matrices"):
        check_equiv_formulation(m, dec, (), RatMatrix.zeros(2, 2))


# -- generic singular matrices: the certificate as a theorem ----------------------


def _singular_symmetric(rng, e_in_range: bool):
    """A seeded random symmetric D of order 4..10 with kernel dimension 1..3.

    D = P A P, A random symmetric and P the orthogonal projector onto the
    complement of random integer directions z, so ker D is their span
    when rank D = order - nullity (redrawn otherwise).  With e_in_range
    each z sums to zero, which puts e in range(D) = (ker D)'s complement;
    otherwise some z has e'z != 0, which puts e outside it.
    """
    while True:
        order, nullity = rng.randint(4, 10), rng.randint(1, 3)
        rows = []
        for _ in range(nullity):
            z = [rng.randint(-3, 3) for _ in range(order)]
            if e_in_range:
                z[-1] -= sum(z)
            rows.append(z)
        z_mat = RatMatrix.from_rows(rows)
        if rank(z_mat) < nullity or (not e_in_range and not any(map(sum, rows))):
            continue
        z_col = z_mat.transpose()
        p = RatMatrix.identity(order) - z_col @ inverse(z_mat @ z_col) @ z_mat
        d = p @ random_symmetric(rng, order) @ p
        if rank(d) == order - nullity:
            return d


def _triple_of(x: RatMatrix):
    """(L, w, alpha) read off a symmetric X as check_uniqueness does, or None
    when e'Xe = 0: alpha = e'Xe, w = Xe/alpha, L = -2(X - alpha ww')."""
    e = ones_vector(x.rows)
    image = x.mul_vector(e)
    alpha = dot(e, image)
    if alpha == 0:
        return None
    w = scale_vector(1 / alpha, image)
    return Decomposition(-2 * (x - alpha * RatMatrix.outer(w, w)), w, alpha)


def _singular_family(rng, e_in_range: bool, count: int):
    """count (D, Decomposition, null_space_basis(D)) triples of the family."""
    out = []
    while len(out) < count:
        d = _singular_symmetric(rng, e_in_range)
        dec = _triple_of(pseudoinverse(d))
        if dec is not None:
            out.append((d, dec, null_space_basis(d)))
    return out


def test_generic_singular_family_is_certified(rng):
    family = _singular_family(rng, e_in_range=True, count=40)
    # the family reaches every kernel dimension, and bases that are not
    # orthogonal, which the projector must orthogonalize first
    assert {len(kernel) for _, _, kernel in family} == {1, 2, 3}
    assert any(
        dot(kernel[0], kernel[1]) != 0 for _, _, kernel in family if len(kernel) > 1
    )
    for d, dec, kernel in family:
        assert solve(d, ones_vector(d.rows)) is not None
        assert _certify(d, dec, kernel), d
        assert penrose_check(d, dec.candidate), d
        assert check_uniqueness(d, dec) == (dec.alpha, dec.w)


def test_generic_singular_family_fails_with_a_kernel_vector_dropped(rng):
    for d, dec, kernel in _singular_family(rng, e_in_range=True, count=20):
        dropped = rng.randrange(len(kernel))
        assert not _certify(d, dec, kernel[:dropped] + kernel[dropped + 1:]), d


def test_generic_singular_family_fails_with_a_kernel_term_in_x(rng):
    # X + uu' for a kernel vector u keeps X D, so D w = e/alpha, D u = 0
    # and W = 2(I - X D) = 2 P_K all still hold; only X u != 0 rejects it
    for d, dec, kernel in _singular_family(rng, e_in_range=True, count=20):
        u = kernel[rng.randrange(len(kernel))]
        shifted = _triple_of(dec.candidate + RatMatrix.outer(u, u))
        assert shifted.alpha == dec.alpha and shifted.w == dec.w
        assert correction_matrix(d, shifted) == correction_matrix(d, dec)
        assert not _certify(d, shifted, kernel), d
        assert not penrose_check(d, shifted.candidate), d


def test_generic_singular_family_fails_with_e_outside_the_range(rng):
    # pinv(D) still has the shape -L/2 + alpha ww', but D w = DXe/alpha is
    # the projection of e/alpha on the range, not e/alpha
    for d, dec, kernel in _singular_family(rng, e_in_range=False, count=20):
        assert solve(d, ones_vector(d.rows)) is None
        assert dec.candidate == pseudoinverse(d)
        assert not _certify(d, dec, kernel), d


# -- integer builds against plain-Fraction references ------------------------------


def _ref_candidate(dec):
    """-L/2 + alpha ww', entry by entry in Fractions."""
    w, alpha = dec.w, dec.alpha
    return [
        [-x / 2 + alpha * wi * wj for x, wj in zip(row, w)]
        for row, wi in zip(dec.laplacian_like.to_lists(), w)
    ]


def _ref_correction(d, dec):
    """L D + 2I - 2we', entry by entry in Fractions."""
    cols = list(zip(*d.to_lists()))
    return [
        [dot(row, col) + 2 * (i == j) - 2 * dec.w[i] for j, col in enumerate(cols)]
        for i, row in enumerate(dec.laplacian_like.to_lists())
    ]


def _ref_twice_projector(kernel, order):
    """2 K'(K K')^-1 K, the Gram inverse by Gauss-Jordan in Fractions."""
    k = len(kernel)
    rows = [
        [dot(u, v) for v in kernel] + [Fraction(i == j) for j in range(k)]
        for i, u in enumerate(kernel)
    ]
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    inv = [row[k:] for row in rows]
    return [
        [
            2 * sum(kernel[s][i] * inv[s][t] * kernel[t][j] for s in range(k) for t in range(k))
            for j in range(order)
        ]
        for i in range(order)
    ]


def _ref_schur_chain(m, case):
    """schur_psd_check's chain on dense Fractions: c > 0, T - b b'/c equal to
    [[A - J/(2k), B], [B, I]] for m = [[c, b'], [b, T]], B B = -B, and no
    negative inertia of A + B - J/(2k)."""
    rows = m.to_lists()
    c, border = rows[0][0], [row[0] for row in rows[1:]]
    if c <= 0:
        return False
    first = [
        [x - bi * bj / c for x, bj in zip(row[1:], border)]
        for row, bi in zip(rows[1:], border)
    ]
    k = case.n - 1
    b = case.coupling_block.dense().to_lists()
    rim = [[x - Fraction(1, 2 * k) for x in row] for row in case.rim_block.dense().to_lists()]
    ident = [[Fraction(i == j) for j in range(k)] for i in range(k)]
    if first != [r + s for r, s in zip(rim, b)] + [r + s for r, s in zip(b, ident)]:
        return False
    if any(dot(row, col) != -x for row in b for col, x in zip(zip(*b), row)):
        return False
    second = [[x + y for x, y in zip(r, s)] for r, s in zip(rim, b)]
    return inertia(RatMatrix.from_rows(second)).i_minus == 0


def _assert_integer_builds_match(d, dec, kernel):
    assert dec.candidate.to_lists() == _ref_candidate(dec)
    assert correction_matrix(d, dec).to_lists() == _ref_correction(d, dec)
    assert _twice_projector(kernel, d.rows).to_lists() == _ref_twice_projector(kernel, d.rows)


@pytest.mark.parametrize("n", range(4, 14))
def test_integer_builds_match_fraction_references_on_helm(n):
    d, dec = helm_distance_block(n), helm_decomposition(n)
    _assert_integer_builds_match(d, dec, make_w_alpha(n).kernel)
    # the Schur chain on specs against its dense Fraction reference: the
    # helm L, the negated L (corner < 0) and an L whose rim spec is
    # shifted by 3 (consistent complements, a negative inertia)
    case = make_even_case(n) if n % 2 == 0 else make_odd_case(n)
    rim = case.rim_block.spec
    lowered = _helm_case(n, (rim[0] - 3,) + rim[1:], case.coupling_block.spec)
    for lap, c in (
        (case.laplacian_like, case),
        (-case.laplacian_like, case),
        (lowered.laplacian_like, lowered),
    ):
        assert schur_psd_check(lap, c) == _ref_schur_chain(lap, c)
    assert schur_psd_check(case.laplacian_like, case)


def test_integer_builds_match_fraction_references_on_the_generic_family(rng):
    # kernel dimensions 1-3 with bases that are not orthogonal, so the
    # projector's Gram-Schmidt step does work
    family = _singular_family(rng, e_in_range=True, count=40)
    assert {len(kernel) for _, _, kernel in family} == {1, 2, 3}
    for d, dec, kernel in family:
        _assert_integer_builds_match(d, dec, kernel)


def test_schur_chain_on_specs_matches_the_fraction_reference(rng):
    # seeded cases of the helm shape: the true rim spec or one moved by a
    # random delta-symmetric spec, and the true coupling spec (B B = -B)
    # or a random delta-symmetric one.  Each L is checked against its own
    # case and the other one, and bumped off the bordered shape
    verdicts = []
    for _ in range(25):
        n = rng.randint(4, 12)
        true = make_even_case(n) if n % 2 == 0 else make_odd_case(n)
        shift = random_delta_vector(rng, n - 1)
        rim = true.rim_block.spec
        coupling = true.coupling_block.spec if rng.random() < 0.75 else random_delta_vector(rng, n - 1)
        cases = [
            _helm_case(n, rim, coupling),
            _helm_case(n, tuple([x + y for x, y in zip(rim, shift)]), coupling),
        ]
        for lap in [c.laplacian_like for c in cases]:
            for m in (lap, bump_l(lap)):
                for case in cases:
                    verdict = schur_psd_check(m, case)
                    assert verdict == _ref_schur_chain(m, case)
                    verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# -- uniqueness ---------------------------------------------------------------


def test_uniqueness_recovery_n7():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    alpha, w = check_uniqueness(d, dec)
    assert alpha == Fraction(2, 9)
    assert w == (Fraction(-1, 2),) + (Fraction(-1, 4),) * 6 + (Fraction(1, 2),) * 6


def test_uniqueness_recovery_n6():
    d, dec = helm_distance_block(6), helm_decomposition(6)
    alpha, _ = check_uniqueness(d, dec)
    assert alpha == Fraction(4, 15)


def test_flipping_w_is_rejected_at_construction():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    with pytest.raises(ValueError, match="e'w = 1"):
        Decomposition(dec.laplacian_like, tuple(-x for x in dec.w), dec.alpha)


@pytest.mark.parametrize("n", range(4, 14))
def test_no_other_alpha_admits_a_normalized_solution(n):
    # for any scale c != 4/(3(n-1)), solutions x of D x = (1/c) e exist
    # but never satisfy e'x = 1, so the scale in the formula is forced
    d = helm_distance_block(n)
    e = ones_vector(2 * n - 1)
    for wrong in (Fraction(1, 4), Fraction(1), Fraction(7, 5)):
        x = solve(d, scale_vector(1 / wrong, e))
        assert x is not None
        assert dot(e, x) != 1
        if n % 2 == 1:
            kernel = null_space_basis(d)[0]
            assert dot(e, kernel) == 0  # kernel shifts cannot fix e'x


# -- six conditions -------------------------------------------------------------


def _unit(k: int) -> Circulant:
    """The identity of order k as a circulant."""
    return Circulant((1,) + (0,) * (k - 1))


def test_six_conditions_odd_n9():
    data = make_odd_case(9)
    s = Circulant(cycle_signless_laplacian_spec(8))
    report = check_conditions_i_vi(data.rim_block, data.coupling_block, s)
    assert all(report)


def test_six_conditions_even_n8_with_negative_identity():
    data = make_even_case(8)
    k = 7
    s = Circulant(cycle_signless_laplacian_spec(k))
    report = check_conditions_i_vi(data.rim_block, -_unit(k), s)
    assert all(report)


def test_six_conditions_detect_perturbation():
    data = make_odd_case(7)
    s = Circulant(cycle_signless_laplacian_spec(6))
    report = check_conditions_i_vi(data.rim_block + _unit(6), data.coupling_block, s)
    assert not report.s_balance
    assert not all(report)


def test_six_conditions_shape_guard():
    with pytest.raises(ValueError, match="unequal order"):
        check_conditions_i_vi(_unit(3), _unit(4), _unit(3))


def test_six_conditions_refuse_a_dense_block():
    # the spectra that eig reads off the conditions hold only for
    # circulants, so a dense matrix is refused, even a circulant one
    case = make_odd_case(7)
    triple = (case.rim_block, case.coupling_block, Circulant(cycle_signless_laplacian_spec(6)))
    assert all(check_conditions_i_vi(*triple))
    for i in range(3):
        dense = list(triple)
        dense[i] = dense[i].dense()
        with pytest.raises(TypeError, match="Circulants"):
            check_conditions_i_vi(*dense)
    with pytest.raises(TypeError, match="Circulants"):
        check_conditions_i_vi(*[m.dense() for m in triple])


def _ref_six_conditions(a_mat, b_mat, s_mat):
    """The six block conditions, entry by entry in Fractions."""
    a, b, s = a_mat.to_lists(), b_mat.to_lists(), s_mat.to_lists()
    k = len(a)

    def mul(x, y):
        return [[dot(row, col) for col in zip(*y)] for row in x]

    def add(x, y, c=1):
        return [[p + c * q for p, q in zip(r, t)] for r, t in zip(x, y)]

    zero = [[0] * k for _ in range(k)]
    b_plus_i = add(b, [[Fraction(i == j) for j in range(k)] for i in range(k)])
    return SixConditions(
        a_row_sum=all(sum(row) == Fraction(3, 2) for row in a),
        b_row_sum=all(sum(row) == -1 for row in b),
        b_absorbs_s=mul(b, s) == add(zero, s, -1),
        a_annihilated=mul(b_plus_i, a) == zero,
        b_annihilated=mul(b_plus_i, b) == zero,
        s_balance=add(mul(add(a, b), s), b, 2) == zero,
    )


def _circulant_triples(rng):
    """Seeded spec triples (A, B, S): random ones for k = 1..12, the same with
    the row sums of A and B set to 3/2 and -1, with B = -I, and the helm
    triples of n = 4..13 as they are and with one spec moved by a random
    delta-symmetric spec."""
    triples = []
    for k in range(1, 13):
        a, b, s = ([random_fraction(rng) for _ in range(k)] for _ in range(3))
        triples.append((a, b, s))
        a = [a[0] + Fraction(3, 2) - sum(a)] + a[1:]
        b = [b[0] - 1 - sum(b)] + b[1:]
        triples += [(a, b, s), (a, [-1] + [0] * (k - 1), s)]
    for n in range(4, 14):
        case = make_even_case(n) if n % 2 == 0 else make_odd_case(n)
        helm = (case.rim_block.spec, case.coupling_block.spec, cycle_signless_laplacian_spec(n - 1))
        triples.append(helm)
        for i in range(3):
            moved = list(helm)
            moved[i] = [x + y for x, y in zip(helm[i], random_delta_vector(rng, n - 1))]
            triples.append(tuple(moved))
    return [tuple(Circulant(spec) for spec in t) for t in triples]


def test_six_conditions_match_the_fraction_reference_on_both_routes(rng):
    # the circulant triples take the spec route, and every condition holds
    # on one of them and fails on another.  The dense route is gone: their
    # dense copies are refused
    triples = _circulant_triples(rng)
    seen = set()
    for t in triples:
        dense = [m.dense() for m in t]
        got = check_conditions_i_vi(*t)
        assert got._asdict() == _ref_six_conditions(*dense)._asdict()
        seen |= set(got._asdict().items())
        with pytest.raises(TypeError):
            check_conditions_i_vi(*dense)
    assert seen == {(f, v) for f in SixConditions._fields for v in (True, False)}


# -- kernel projector --------------------------------------------------------------


def test_kernel_projector_rim_block_has_rank_one():
    projector = build_kernel_projector(make_odd_case(5))
    rim = projector.submatrix(range(1, 5), range(1, 5))
    assert rank(rim) == 1
    data = make_odd_case(5)
    assert rim == (2 * (data.coupling_block + _unit(4))).dense()


@pytest.mark.parametrize("n", ODD_RANGE)
def test_kernel_projector_identities(n):
    data = make_odd_case(n)
    projector = build_kernel_projector(data)
    order = 2 * n - 1
    d = helm_distance_block(n)
    vectors = make_w_alpha(n)
    assert projector.is_symmetric()
    assert all(x == 0 for x in projector.mul_vector(ones_vector(order)))
    assert (d @ projector).is_zero()
    assert (projector @ data.laplacian_like).is_zero()
    assert all(x == 0 for x in projector.mul_vector(vectors.w))
    # the correction identity: L D + 2I - 2 w e' = V
    two_we = 2 * RatMatrix.outer(vectors.w, ones_vector(order))
    assert data.laplacian_like @ d + 2 * RatMatrix.identity(order) - two_we == projector


@pytest.mark.parametrize("n", EVEN_RANGE)
def test_even_correction_vanishes(n):
    # nonsingular case: L D + 2I = 2 w e' with no projector term
    d = helm_distance_block(n)
    data = make_even_case(n)
    vectors = make_w_alpha(n)
    order = 2 * n - 1
    two_we = 2 * RatMatrix.outer(vectors.w, ones_vector(order))
    assert data.laplacian_like @ d + 2 * RatMatrix.identity(order) == two_we


@pytest.mark.parametrize("n", EVEN_RANGE)
def test_kernel_projector_vanishes_for_even_n(n):
    # B = -I, so 2(B + I) = 0: the one construction gives V = 0 for a nonsingular D
    order = 2 * n - 1
    assert build_kernel_projector(make_even_case(n)) == RatMatrix.zeros(order, order)


# -- kernel structure ----------------------------------------------------------------


@pytest.mark.parametrize("n", ODD_RANGE)
def test_mp_inverse_shares_the_kernel(n):
    x = closed_form_mp_inverse(helm_decomposition(n))
    assert all(v == 0 for v in x.mul_vector(_kernel_vector(n)))


@pytest.mark.parametrize("n", (5, 9))
def test_solution_set_is_a_kernel_line(n):
    d = helm_distance_block(n)
    vectors = make_w_alpha(n)
    e = ones_vector(2 * n - 1)
    rhs = scale_vector(Fraction(3 * (n - 1), 4), e)
    z0 = _kernel_vector(n)
    for t in (Fraction(-2), Fraction(1), Fraction(3, 2)):
        shifted = tuple([a + t * z for a, z in zip(vectors.w, z0)])
        assert d.mul_vector(shifted) == rhs
        assert dot(e, shifted) == 1
    # only the t = 0 member lies in the range of D
    assert solve(d, vectors.w) is not None
    for t in (Fraction(1), Fraction(-1), Fraction(3, 2)):
        shifted = tuple([a + t * z for a, z in zip(vectors.w, z0)])
        assert solve(d, shifted) is None


# -- spectra restated exactly ----------------------------------------------------------


@pytest.mark.parametrize("n", ODD_RANGE)
def test_shifted_coupling_block_annihilating_polynomial(n):
    k = n - 1
    data = make_odd_case(n)
    m = data.coupling_block - Fraction(1, 2 * (n - 1)) * Circulant((1,) * k)
    ident = _unit(k)
    assert all(x == 0 for x in m.dense().mul_vector(alternating_signs(k)))
    assert (m @ (m + ident) @ (m + Fraction(3, 2) * ident)).is_zero()
    assert rank(m.dense()) == n - 2


# -- PSD and rank of L -------------------------------------------------------------------


@pytest.mark.parametrize("n", (5, 7, 9))
def test_schur_psd_check_accepts_the_real_l(n):
    case = make_odd_case(n)
    assert schur_psd_check(case.laplacian_like, case)


@pytest.mark.parametrize("n", ODD_RANGE)
def test_inertia_of_l(n):
    lap = make_odd_case(n).laplacian_like
    assert inertia(lap) == InertiaTriple(2 * n - 3, 0, 2)


def test_schur_psd_check_rejects_negated_corner():
    n = 7
    case = make_odd_case(n)
    lap = case.laplacian_like
    rows = lap.to_lists()
    rows[0][0] = -rows[0][0]
    assert not schur_psd_check(RatMatrix.from_rows(rows), case)


@pytest.mark.parametrize("n", (5, 7, 9))
def test_schur_psd_check_rejects_an_indefinite_but_consistent_l(n):
    # lowering the rim diagonal by 3 changes A and L together, so both
    # complements still have their expected form; only the inertia of
    # A + B - J/(2(n-1)), now with a negative eigenvalue, can say no
    c = make_odd_case(n)
    rim_spec = (c.rim_block.spec[0] - 3,) + c.rim_block.spec[1:]
    case = _helm_case(n, rim_spec, c.coupling_block.spec)
    assert inertia(case.laplacian_like).i_minus > 0
    assert not schur_psd_check(case.laplacian_like, case)


def test_schur_psd_check_shape_guard():
    with pytest.raises(ValueError, match="expected order 13"):
        schur_psd_check(RatMatrix.identity(4), make_odd_case(7))


def _rank_l(n: int) -> int:
    d, dec = helm_distance_block(n), helm_decomposition(n)
    return rank_l_check(rank(d), rank(dec.laplacian_like))


def test_rank_l_check_values():
    assert _rank_l(5) == 7
    assert _rank_l(6) == 10
    assert _rank_l(9) == 15


def test_rank_l_check_rejects_ranks_that_do_not_fit():
    d, dec = helm_distance_block(7), helm_decomposition(7)
    rank_l = rank(dec.laplacian_like)
    with pytest.raises(VerificationError, match="distance matrix"):
        rank_l_check(rank(d) + 1, rank_l)


@pytest.mark.parametrize("n", ODD_RANGE)
def test_rank_gap_between_l_and_the_mp_inverse(n):
    data = make_odd_case(n)
    vectors = make_w_alpha(n)
    candidate = Fraction(-1, 2) * data.laplacian_like + vectors.alpha * RatMatrix.outer(
        vectors.w, vectors.w
    )
    assert rank(candidate) - rank(data.laplacian_like) == 1
    # the rank-one lemma behind the gap: w is outside the range of L
    assert solve(data.laplacian_like, vectors.w) is None


# -- trees: a second family with D^-1 = -L/2 + alpha ww' -------------------------


def _prufer_tree(code: list[int], m: int) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency lists of the tree on m >= 2 vertices with Prufer code code."""
    degree = [1] * m
    for v in code:
        degree[v] += 1
    nbrs: list[list[int]] = [[] for _ in range(m)]
    for v in code:
        leaf = degree.index(1)
        nbrs[leaf].append(v)
        nbrs[v].append(leaf)
        degree[leaf] -= 1
        degree[v] -= 1
    a, b = [u for u in range(m) if degree[u] == 1]
    nbrs[a].append(b)
    nbrs[b].append(a)
    return tuple(tuple(sorted(row)) for row in nbrs)


@st.composite
def _prufer_codes(draw) -> tuple[int, list[int]]:
    m = draw(st.integers(2, 14))
    return m, draw(st.lists(st.integers(0, m - 1), min_size=m - 2, max_size=m - 2))


@seed(env_seed())
@settings(max_examples=200, deadline=None)
@given(_prufer_codes())
def test_random_trees_satisfy_the_characterization(tree):
    # Graham and Lovasz (1978): a tree on m vertices has
    # D^-1 = -L/2 + tau tau'/(2(m-1)), tau = 2 - deg, L its Laplacian;
    # as a triple, w = tau/2 and alpha = 2/(m-1)
    m, code = tree
    adjacency = _prufer_tree(code, m)
    d = bfs_distance_matrix(adjacency)
    lap = RatMatrix.from_rows(
        [[len(nbrs) if i == j else -int(j in nbrs) for j in range(m)] for i, nbrs in enumerate(adjacency)]
    )
    w = tuple(Fraction(2 - len(nbrs), 2) for nbrs in adjacency)
    alpha = Fraction(2, m - 1)
    dec = Decomposition(lap, w, alpha)
    assert _certify(d, dec, ()), adjacency
    assert dec.candidate == inverse(d) == pseudoinverse(d), adjacency
    assert check_uniqueness(d, dec) == (alpha, w), adjacency
