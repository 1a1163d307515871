"""Closed forms for the inverse of a helm graph's distance matrix.

For the helm graph on 2n-1 vertices the inverse (n even) and the
Moore-Penrose inverse (n odd) of the distance matrix D both take the
shape

    -1/2 * L  +  4/(3(n-1)) * w w'

where w = (5-n, -e', 2e')/4 and L is a symmetric matrix with zero row
sums, built from bordered circulant blocks over the rim.  L has the same
shape for both parities; only its coupling block differs, and for even
n it is -I.  This module builds every ingredient of that formula from
its closed form alone: no constructor builds D or runs an oracle.  A
case's specs are integers over one denominator, 6(n-1) for odd n and 2
for even n, so L is one bordered element laid out once, with no
Fraction per entry.  The identities that tie the ingredients to D are
checked once, by the report in helmlab.cli, against the generic
elimination oracles from exact_core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .circulant import Circulant, alternating_signs, bordered_circulant
from .exact_core import Decomposition, RatMatrix, Vector


def rank_one_scale(n: int) -> Fraction:
    """The coefficient 4/(3(n-1)) of the rank-one term."""
    return Fraction(4, 3 * (n - 1))


@dataclass(frozen=True)
class HelmVectors:
    """The vectors attached to the helm graph of parameter n.

    w = (5-n, -e', 2e')/4 and alpha = 4/(3(n-1)), so that D w = e/alpha
    and e'w = 1.  kernel is a basis of ker D in closed form: for odd n the
    one vector u = (0, v', 0')', v alternating +1/-1 around the rim, and
    for even n, where D is nonsingular, no vector.  The report's
    equiv_formulation check proves that it spans ker D and certifies
    -L/2 + alpha ww' as D+ with it
    (characterization.check_equiv_formulation).
    """

    w: Vector
    alpha: Fraction
    kernel: tuple[Vector, ...]


def make_w_alpha(n: int) -> HelmVectors:
    """Build w = (5-n, -e', 2e')/4, alpha = 4/(3(n-1)) and the kernel basis."""
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    k = n - 1
    quarter = Fraction(1, 4)
    w = (
        (quarter * (5 - n),)
        + tuple([-quarter] * k)
        + tuple([2 * quarter] * k)
    )
    zero = (Fraction(0),)
    kernel = () if n % 2 == 0 else (zero + alternating_signs(k) + zero * k,)
    return HelmVectors(w, rank_one_scale(n), kernel)


@dataclass(frozen=True)
class HelmCase:
    """Ingredients of the closed form for one n, either parity.

    rim_block A and coupling_block B are circulants of order n - 1, kept
    as elements (circulant.Circulant) whose delta-symmetric specs are
    their first rows; laplacian_like is the bordered order-(2n-1) matrix

        [ (n-1)/2   -e'/2      0 ]
        [ -e/2      A          B ]
        [ 0         B          I ]

    For even n the coupling spec is (-1, 0, ..., 0), so B = -I.
    """

    n: int
    rim_block: Circulant
    coupling_block: Circulant
    laplacian_like: RatMatrix


def _helm_case(n: int, a: Circulant, b: Circulant) -> HelmCase:
    """The case with rim block a and coupling block b.

    L is one bordered element over den, the lcm of 2 and the blocks'
    denominators, so that its hub (n-1)/2 and border -1/2 are integers
    over den too: built from the blocks' integer specs and laid out once.
    """
    den = math.lcm(2, a._den, b._den)
    rim, coupling = [[x * (den // c._den) for x in c._ints] for c in (a, b)]
    unit = [den] + [0] * (n - 2)
    lap = bordered_circulant(den // 2 * (n - 1), (-den // 2, 0), (rim, coupling, unit), den)
    return HelmCase(n, a, b, lap)


def make_odd_case(n: int) -> HelmCase:
    """The odd-n circulant blocks and the bordered matrix L.

    With m = (n-1)/2, the rim spec is

        x = (n^2+4n-12, a_1, ..., a_m, a_{m-1}, ..., a_1) / (6(n-1)),
        a_k = (-1)^(k+1) * (2m^2 - 6(m-k)^2 + 7),

    and the coupling spec is y = v/(n-1) - e_1 with v the alternating
    sign vector, i.e. (2-n, -1, 1, ..., 1, -1)/(n-1).  Both specs are
    built as integers over the one denominator 6(n-1), y as
    6v - 6(n-1) e_1, with no Fraction per entry.
    """
    if n % 2 == 0:
        raise ValueError(f"odd n required, got {n}")
    if n < 5:
        raise ValueError(f"odd case needs n >= 5, got {n}")
    m = (n - 1) // 2
    coeffs = [(-1) ** (j + 1) * (2 * m * m - 6 * (m - j) ** 2 + 7) for j in range(1, m + 1)]
    rim = [n * n + 4 * n - 12] + coeffs + coeffs[-2::-1]
    coupling = [6 * (-1) ** i for i in range(n - 1)]
    coupling[0] -= 6 * (n - 1)
    scale = Fraction(1, 6 * (n - 1))
    return _helm_case(n, Circulant(rim) * scale, Circulant(coupling) * scale)


def make_even_case(n: int) -> HelmCase:
    """The even-n rim block, the coupling block -I and the bordered matrix L.

    The rim spec is

        z = (n+1, b_1, ..., b_{n/2-1}, b_{n/2-1}, ..., b_1) / 2,
        b_k = (-1)^k * ((n-1) - 2k).

    Both specs are built as integers over the one denominator 2, the
    coupling spec -e_1 as (-2, 0, ..., 0), with no Fraction per entry.
    """
    if n % 2 == 1:
        raise ValueError(f"even n required, got {n}")
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    coeffs = [(-1) ** j * (n - 1 - 2 * j) for j in range(1, n // 2)]
    rim = [n + 1] + coeffs + coeffs[::-1]
    coupling = [-2] + [0] * (n - 2)
    return _helm_case(n, Circulant(rim) * Fraction(1, 2), Circulant(coupling) * Fraction(1, 2))


def closed_form_inverse(dec: Decomposition) -> RatMatrix:
    """Inverse of the distance matrix for even n: dec's -L/2 + alpha ww', dense.

    The report's closed_form_inverse check compares this X with the
    pseudoinverse from exact_core.factor_symmetric, which is D^-1 for a
    nonsingular D; on a helm it compares X's bordered element
    (characterization.candidate_element) with the lifted pseudoinverse,
    and builds this dense X only on the dense route.
    """
    n = (len(dec.w) + 1) // 2
    if n % 2 == 1:
        raise ValueError(f"even n required, got {n}")
    return dec.candidate


def closed_form_mp_inverse(dec: Decomposition) -> RatMatrix:
    """Moore-Penrose inverse of the distance matrix for odd n: dec's -L/2 + alpha ww', dense.

    Same shape as the even case.  The report's closed_form_mp_inverse
    check compares X with the pseudoinverse from
    exact_core.factor_symmetric, D's Schur-complement factorization: on a
    helm as bordered elements, X's (characterization.candidate_element)
    with lift(pinv), so this dense X is built only on the dense route.
    X's four Penrose conditions are proved once, by the equiv_formulation
    check (characterization.check_equiv_formulation), from D w = e/alpha,
    the closed-form kernel u of HelmVectors (D u = 0 and X u = 0) and the
    one product L D: L D + 2I - 2we' = 2uu'/(u'u), all on elements for a
    helm.
    """
    n = (len(dec.w) + 1) // 2
    if n % 2 == 0:
        raise ValueError(f"odd n required, got {n}")
    return dec.candidate
