"""Closed forms for the inverse of a helm graph's distance matrix.

For the helm graph on 2n-1 vertices the inverse (n even) and the
Moore-Penrose inverse (n odd) of the distance matrix D both take the
shape

    -1/2 * L  +  4/(3(n-1)) * w w'

where w = (5-n, -e', 2e')/4 and L is a symmetric matrix with zero row
sums, built from bordered circulant blocks over the rim.  L has the same
shape for both parities; only its coupling block differs, and for even
n it is -I.  This module builds every ingredient of that formula from
its closed form alone: no constructor builds D or runs an oracle.  The
identities that tie the ingredients to D are checked once, by the
report in helmlab.cli, against the generic elimination oracles from
exact_core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .circulant import alternating_signs, bordered_circulant, materialize
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

    rim_spec and coupling_spec (both delta-symmetric) define the
    circulant blocks rim_block A and coupling_block B; laplacian_like is
    the bordered order-(2n-1) matrix

        [ (n-1)/2   -e'/2      0 ]
        [ -e/2      A          B ]
        [ 0         B          I ]

    For even n the coupling spec is (-1, 0, ..., 0), so B = -I.
    """

    n: int
    rim_spec: Vector
    coupling_spec: Vector
    rim_block: RatMatrix
    coupling_block: RatMatrix
    laplacian_like: RatMatrix


def _helm_case(n: int, rim_spec: Vector, coupling_spec: Vector) -> HelmCase:
    unit = (1,) + (0,) * (n - 2)
    lap = bordered_circulant(
        Fraction(n - 1, 2), (Fraction(-1, 2), 0), (rim_spec, coupling_spec, unit)
    )
    return HelmCase(
        n, rim_spec, coupling_spec, materialize(rim_spec), materialize(coupling_spec), lap
    )


def make_odd_case(n: int) -> HelmCase:
    """The odd-n circulant blocks and the bordered matrix L.

    With m = (n-1)/2, the rim spec is

        x = (n^2+4n-12, a_1, ..., a_m, a_{m-1}, ..., a_1) / (6(n-1)),
        a_k = (-1)^(k+1) * (2m^2 - 6(m-k)^2 + 7),

    and the coupling spec is y = v/(n-1) - e_1 with v the alternating
    sign vector, i.e. (2-n, -1, 1, ..., 1, -1)/(n-1).
    """
    if n % 2 == 0:
        raise ValueError(f"odd n required, got {n}")
    if n < 5:
        raise ValueError(f"odd case needs n >= 5, got {n}")
    m = (n - 1) // 2
    k = n - 1
    coeffs = tuple(
        [
            Fraction((-1) ** (kk + 1) * (2 * m * m - 6 * (m - kk) ** 2 + 7))
            for kk in range(1, m + 1)
        ]
    )
    body = [Fraction(n * n + 4 * n - 12)] + list(coeffs) + list(coeffs[-2::-1])
    denom = Fraction(1, 6 * (n - 1))
    x = tuple([denom * val for val in body])
    v = alternating_signs(k)
    y = tuple([val / (n - 1) - (1 if i == 0 else 0) for i, val in enumerate(v)])
    return _helm_case(n, x, y)


def make_even_case(n: int) -> HelmCase:
    """The even-n rim block, the coupling block -I and the bordered matrix L.

    The rim spec is

        z = (n+1, b_1, ..., b_{n/2-1}, b_{n/2-1}, ..., b_1) / 2,
        b_k = (-1)^k * ((n-1) - 2k).
    """
    if n % 2 == 1:
        raise ValueError(f"even n required, got {n}")
    if n < 4:
        raise ValueError(f"helm graphs need n >= 4, got {n}")
    half = n // 2
    k = n - 1
    coeffs = tuple([Fraction((-1) ** kk * (n - 1 - 2 * kk)) for kk in range(1, half)])
    body = [Fraction(n + 1)] + list(coeffs) + list(reversed(coeffs))
    z = tuple([Fraction(1, 2) * val for val in body])
    minus_e1 = (Fraction(-1),) + (Fraction(0),) * (k - 1)
    return _helm_case(n, z, minus_e1)


def closed_form_inverse(dec: Decomposition) -> RatMatrix:
    """Inverse of the distance matrix for even n: dec's -L/2 + alpha ww'.

    The report's closed_form_inverse check compares it with the
    pseudoinverse from exact_core.factor_symmetric, which is D^-1 for a
    nonsingular D.
    """
    n = (len(dec.w) + 1) // 2
    if n % 2 == 1:
        raise ValueError(f"even n required, got {n}")
    return dec.candidate


def closed_form_mp_inverse(dec: Decomposition) -> RatMatrix:
    """Moore-Penrose inverse of the distance matrix for odd n: dec's -L/2 + alpha ww'.

    Same shape as the even case.  The report's closed_form_mp_inverse
    check compares it with the pseudoinverse from
    exact_core.factor_symmetric, D's Schur-complement factorization.  Its
    four Penrose conditions are proved once, by the equiv_formulation
    check (characterization.check_equiv_formulation), from D w = e/alpha,
    the closed-form kernel u of HelmVectors (D u = 0 and X u = 0) and the
    one product L D: L D + 2I - 2we' = 2uu'/(u'u).
    """
    n = (len(dec.w) + 1) // 2
    if n % 2 == 0:
        raise ValueError(f"odd n required, got {n}")
    return dec.candidate
