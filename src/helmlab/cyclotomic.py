"""Exact inertia of symmetric circulant elements by cyclotomic trace forms.

A symmetric circulant C of order k with integer spec c has the
eigenvalue c(r^j) = sum_i c_i r^(ij) on the Fourier vector f_j,
r = exp(2 pi i/k).  The modes j whose r^j has order d, for d a divisor
of k, share one number: with c' the spec folded mod d
(c'_s = sum of the c_i with i = s mod d) and zeta a primitive d-th root
of unity, beta = c'(zeta) lies in the real cyclotomic field K of degree
g = phi(d)/2 (g = 1 for d <= 2), and the eigenvalues of those modes are
the g real conjugates of beta, each on two modes (zeta^j and zeta^-j)
when d > 2 and on one when d <= 2.  By Hermite's theorem on trace forms
(Conner and Perlis, A Survey of Trace Forms of Algebraic Number Fields,
1984) the rational form x, y -> Tr_K(beta x y) has exactly as many
positive, negative and zero eigenvalues as beta has positive, negative
and zero conjugates, zeros included.  On the basis y_i = zeta^i +
zeta^-i, i < g, its Gram matrix is

    Q_ij = R(i + j) + R(|i - j|),   R(s) = sum_r c'_r c_d(r + s),

with c_d(m) = Tr(zeta^m) = mu(d/t) phi(d)/phi(d/t), t = gcd(m, d),
Ramanujan's sum.  R is the cyclic convolution of c' with c_d, since c'
is symmetric.  So

    inertia(C) = sum over d | k of mult_d * inertia(Q_d),

mult_d = 1 for d <= 2 and 2 otherwise: no cosine and no float, and
each small form goes to the package's one exact kernel
(exact_core._congruence).

A symmetric Bordered element [[h, r'], [r, M]] whose grid
M = ((P, Q), (Q, T)) has symmetric circulant blocks splits the same
way.  Its modes d > 1 meet neither the hub nor the borders (e'f_j = 0
for j != 0); on them M acts as the 2x2 matrix of the blocks' numbers,
whose trace form is the 2g x 2g grid of the blocks' forms.  Mode d = 1
is the restriction to span{hub, (e, 0), (0, e)}: its Gram matrix in
that basis is the 3x3 form [[h, k r1, k r2], [k r1, k sP, k sQ],
[k r2, k sQ, k sT]], s the spec sums.  A spec that is not
delta-symmetric, or a grid with Q != R, is refused with ValueError, as
exact_core.inertia refuses a non-symmetric matrix.

Positive scalings keep an inertia, so the forms are built on the
elements' integers and their denominators are dropped.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .circulant import Bordered, Circulant
from .exact_core import InertiaTriple, RatMatrix, _congruence


def divisors(k: int) -> list[int]:
    """The divisors of k >= 1, ascending."""
    return [d for d in range(1, k + 1) if k % d == 0]


def _primes(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    for p in _primes(n):
        n = n // p * (p - 1)
    return n


def mu(n: int) -> int:
    """The Moebius function of n >= 1: 0 unless n is squarefree."""
    primes = _primes(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def fold(spec: Sequence[int], d: int) -> list[int]:
    """spec folded mod d, d a divisor of its length: entry s sums spec[s::d]."""
    return [sum(spec[s::d]) for s in range(d)]


def ramanujan_sums(d: int) -> list[int]:
    """c_d(m) = mu(d/t) phi(d)/phi(d/t), t = gcd(m, d), for m = 0..d-1:
    the trace of zeta^m over Q, zeta a primitive d-th root of unity."""
    phi_d = phi(d)
    by_quotient = {q: mu(q) * phi_d // phi(q) for q in divisors(d)}
    return [by_quotient[d // math.gcd(m, d)] for m in range(d)]


def _is_delta_symmetric(spec: Sequence[int]) -> bool:
    return spec[1:] == spec[:0:-1]


def symmetric_blocks(b: Bordered) -> bool:
    """Whether b is symmetric with symmetric blocks: equal borders, P, Q
    and T delta-symmetric and R = Q, the shape bordered_inertia takes."""
    p, q, r, t = b._specs()
    return b._ints[1:3] == b._ints[3:5] and q == r and all(map(_is_delta_symmetric, (p, q, t)))


def _forms(specs: list[Sequence[int]], grid: list[list[int]], k: int, first: int):
    """(mult_d, order, integers) of the form Q_d for each divisor d of k,
    ascending, but the first ``first`` divisors.

    Block (a, b) of Q_d is the g x g form of specs[grid[a][b]], the grid a
    symmetric layout of the specs."""
    for d in divisors(k)[first:]:
        sums = ramanujan_sums(d)
        g = 1 if d <= 2 else sums[0] // 2  # c_d(0) = phi(d)
        # R(s) = sum_r c'_r c_d(r + s) for s < 2g - 1, c' each spec folded
        twice = sums + sums
        folded = [fold(spec, d) for spec in specs]
        r = [[sum(map(mul, c, twice[s : s + d])) for s in range(2 * g - 1)] for c in folded]
        form = [
            r[x][i + j] + r[x][abs(i - j)] for row in grid for i in range(g) for x in row for j in range(g)
        ]
        yield (1 if d <= 2 else 2), len(grid) * g, form


def _inertia(forms) -> InertiaTriple:
    """sum of mult * inertia(Q) over the forms (mult, order, integers of Q)."""
    plus = minus = zero = 0
    for mult, order, ints in forms:
        tri = _congruence(RatMatrix._from_ints(order, order, 1, ints))
        plus += mult * tri.i_plus
        minus += mult * tri.i_minus
        zero += mult * tri.i_zero
    return InertiaTriple(plus, minus, zero)


def circulant_inertia(c: Circulant) -> InertiaTriple:
    """Exact inertia of the symmetric circulant c, by its trace forms.

    ValueError for a spec that is not delta-symmetric."""
    spec = c._ints
    if not _is_delta_symmetric(spec):
        raise ValueError("inertia requires a delta-symmetric spec")
    return _inertia(_forms([spec], [[0]], len(spec), 0))


def bordered_inertia(b: Bordered) -> InertiaTriple:
    """Exact inertia of the symmetric Bordered element b with symmetric
    blocks (symmetric_blocks), by its trace forms; ValueError otherwise."""
    if not symmetric_blocks(b):
        raise ValueError("inertia requires equal borders and delta-symmetric blocks with R = Q")
    h, r1, r2 = b._ints[:3]
    p, q, _, t = b._specs()
    k = len(p)
    hub = [h, k * r1, k * r2, k * r1, k * sum(p), k * sum(q), k * r2, k * sum(q), k * sum(t)]
    return _inertia([(1, 3, hub), *_forms([p, q, t], [[0, 1], [1, 2]], k, 1)])
