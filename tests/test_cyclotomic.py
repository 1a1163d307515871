"""Exact inertia of circulant-structured elements by cyclotomic trace forms.

Every trace-form inertia is compared with the dense congruence
(exact_core.inertia) of the element's dense matrix, on seeded random
symmetric circulants and bordered elements (HELMLAB_SEED picks the
stream) and on the helm matrices L, D and the Schur chain's C.  The
number-theoretic helpers are checked against their definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from helmlab import helm_distance_block, inertia, make_even_case, make_odd_case
from helmlab.circulant import Bordered, Circulant, lift
from helmlab.cyclotomic import (
    bordered_inertia,
    circulant_inertia,
    divisors,
    fold,
    mu,
    phi,
    ramanujan_sums,
    symmetric_blocks,
)

HIGHLY_COMPOSITE = (12, 24, 30, 60)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


# -- the number-theoretic helpers ---------------------------------------------


def _kluyver(d: int, m: int) -> int:
    """c_d(m) = sum over t | gcd(m, d) of t mu(d/t), by brute force."""
    total = 0
    for t in range(1, d + 1):
        if d % t == 0 and m % t == 0:
            q = d // t
            square = any(q % (p * p) == 0 for p in range(2, q + 1))
            primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % s for s in range(2, p))]
            total += 0 if square else t * (-1) ** len(primes)
    return total


@pytest.mark.parametrize("n", range(1, 61))
def test_helpers_match_their_definitions(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    assert phi(n) == len([a for a in range(1, n + 1) if math.gcd(a, n) == 1])
    # sum over d | n of mu(d) is 1 for n = 1 and 0 otherwise
    assert sum(mu(d) for d in divisors(n)) == (n == 1)
    assert ramanujan_sums(n) == [_kluyver(n, m) for m in range(n)]
    spec = list(range(1, 2 * n + 1))
    for d in divisors(n):
        assert fold(spec[:n], d) == [sum(spec[s:n:d]) for s in range(d)]


def test_mu_of_squares_and_primes():
    assert [mu(n) for n in (1, 2, 3, 4, 6, 8, 9, 12, 30, 60)] == [1, -1, -1, 0, 1, 0, 0, 0, -1, 0]


# -- random elements ------------------------------------------------------------


def _symmetric_ints(rng, k: int, span: int = 5) -> list[int]:
    half = [rng.randint(-span, span) for _ in range(k // 2 + 1)]
    return [half[min(i, k - i)] for i in range(k)]


def _killing_mode(k: int, d: int) -> list[int]:
    """The integer spec of k(I - P_d), P_d the projector onto the Fourier
    modes of order d: its spec is c_d(i)/k, so this circulant is zero on
    exactly those modes and k on every other one."""
    return [k * (i == 0) - _kluyver(d, i % d) for i in range(k)]


def _random_circulant(rng, k: int) -> Circulant:
    """A symmetric circulant of order k, often with zero eigenvalues: a
    zero spec sum (mode 1), and the modes of a random divisor killed."""
    spec = _symmetric_ints(rng, k)
    if rng.random() < 0.3:
        spec[0] -= sum(spec)
    c = Circulant(spec) * Fraction(1, rng.randint(1, 6))
    if rng.random() < 0.4:
        c = c @ Circulant(_killing_mode(k, rng.choice(divisors(k))))
    return c


def _random_bordered(rng, k: int) -> Bordered:
    """A symmetric bordered element with symmetric blocks; for half of
    them the grid is [[X^2, XY], [XY, Y^2]], singular on every mode."""
    x, y = Circulant(_symmetric_ints(rng, k)), Circulant(_symmetric_ints(rng, k))
    if rng.random() < 0.5:
        p, q, t = x @ x, x @ y, y @ y
    else:
        p, q, t = x, y, Circulant(_symmetric_ints(rng, k))
    borders = (rng.randint(-3, 3), rng.randint(-3, 3))
    hub = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Bordered(hub, borders, borders, (p.spec, q.spec, q.spec, t.spec))


def _orders():
    return list(range(1, 61)) + [k for k in HIGHLY_COMPOSITE for _ in range(4)]


def test_random_circulants_match_the_dense_inertia(rng):
    zeros = 0
    for k in _orders():
        c = _random_circulant(rng, k)
        tri = circulant_inertia(c)
        assert tri == inertia(c.dense()), (k, c)
        zeros += tri.i_zero > 0
    assert zeros > 10


def test_random_bordered_elements_match_the_dense_inertia(rng):
    zeros = 0
    for k in _orders():
        b = _random_bordered(rng, k)
        assert symmetric_blocks(b)
        tri = bordered_inertia(b)
        assert tri == inertia(b.dense()), (k, b)
        zeros += tri.i_zero > 0
    assert zeros > 10


@pytest.mark.parametrize("k", PRIMES + HIGHLY_COMPOSITE)
def test_every_divisor_counts_with_its_multiplicity(k):
    # a circulant zero on every mode but those of order d has inertia
    # (0, 0, k) plus mult_d times that of one conjugate set: here the
    # complement of the killing spec, k P_d, which is PSD of rank phi(d)
    for d in divisors(k):
        spec = [k * (i == 0) - x for i, x in enumerate(_killing_mode(k, d))]
        tri = circulant_inertia(Circulant(spec))
        assert tri == inertia(Circulant(spec).dense())
        assert tri == (phi(d), 0, k - phi(d))


# -- helm L, D and the Schur chain's C ------------------------------------------


def _helm(n: int):
    case = make_even_case(n) if n % 2 == 0 else make_odd_case(n)
    k = n - 1
    chain = case.rim_block - Fraction(1, 2 * k) * Circulant((1,) * k) + case.coupling_block
    return case.laplacian_like, helm_distance_block(n), chain


@pytest.mark.parametrize("n", [*range(4, 61), 61, 64, 97, 121, 128, 129, 130])
def test_helm_l_d_and_c_match_the_dense_inertia(n):
    lap, d, chain = _helm(n)
    for m in (lap, d):
        form = lift(m)
        assert symmetric_blocks(form)
        assert bordered_inertia(form) == inertia(m)
    assert circulant_inertia(chain) == inertia(chain.dense())


# -- refusals -------------------------------------------------------------------


def test_a_spec_that_is_not_delta_symmetric_is_refused():
    with pytest.raises(ValueError, match="delta-symmetric"):
        circulant_inertia(Circulant((1, 2, 3)))
    lap = lift(make_odd_case(7).laplacian_like)
    hub, rows, cols = lap.hub, lap.rows, lap.cols
    (p, q), (_, t) = lap.blocks
    skew = (0, 1) + (0,) * 4
    for specs in (
        (skew, q.spec, q.spec, t.spec),  # P not delta-symmetric
        (p.spec, skew, skew, t.spec),  # Q = R, neither delta-symmetric
        (p.spec, q.spec, t.spec, t.spec),  # R != Q
    ):
        element = Bordered(hub, rows, cols, specs)
        assert not symmetric_blocks(element)
        with pytest.raises(ValueError, match="delta-symmetric"):
            bordered_inertia(element)
    unequal = Bordered(hub, rows, (cols[0], 1), (p.spec, q.spec, q.spec, t.spec))
    assert not symmetric_blocks(unequal)
    with pytest.raises(ValueError, match="equal borders"):
        bordered_inertia(unequal)
