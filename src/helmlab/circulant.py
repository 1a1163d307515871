"""Circulant matrices and delta-symmetric vectors.

A circulant matrix is determined by its first row, its spec: a plain
sequence of ints and Fractions.  Every later row is the cyclic
right-shift of the previous one.  Products of circulants are again
circulant, and the product spec is the first row times the other
matrix.  Circulants of one order share the Fourier eigenvectors, which
is how ``helmlab eig`` reads the rim blocks' spectra off exact block
identities (characterization.check_conditions_i_vi).

A spec is delta-symmetric (z_i = z_{k+2-i} for i = 2..k, 1-based, with
k its length and z_1 free) exactly when its circulant is symmetric; such
specs are closed under circulant_product.

D, L and the kernel projector V of a helm graph share one bordered shape
in the vertex order (hub, rim, pendants); bordered_circulant lays it out.
It also hosts the two special circulants D is built from: the signless
Laplacian of the rim cycle, spec (2,1,0,...,0,1), and the rim distance
circulant, spec (0,1,2,...,2,1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact_core import RatMatrix, Scalar, Vector, _common_denominator, _fractions, frac


def _length(*specs: Sequence[Scalar]) -> int:
    """The common length of specs; ValueError if they differ or are empty."""
    k = len(specs[0])
    if any(len(s) != k for s in specs):
        raise ValueError(f"specs of length {[len(s) for s in specs]}")
    if not k:
        raise ValueError("circulant spec must be nonempty")
    return k


def _rotations(row: list[int]) -> list[list[int]]:
    """Rows of the circulant with first row row: row i is its right-shift by i."""
    k = len(row)
    return [row[k - i :] + row[: k - i] for i in range(k)]


def materialize(spec: Sequence[Scalar]) -> RatMatrix:
    """Dense circulant matrix: row i is the right-shift of the spec by i.

    The spec is brought to one common denominator once, and the rows are
    rotations of its integer numerators.  An empty spec raises
    ValueError, an entry that is neither an int nor a Fraction TypeError.
    """
    k = _length(spec)
    den, row = _common_denominator(spec)
    return RatMatrix._from_ints(k, k, den, [x for r in _rotations(row) for x in r])


def circulant_product(a: Sequence[Scalar], b: Sequence[Scalar]) -> Vector:
    """Spec of the product: first row of A times the matrix B.

    Circulants of equal order commute, so this is also the spec of B A.
    Raises like materialize, and ValueError for specs of unequal length.
    """
    k = _length(a, b)
    da, ai = _common_denominator(a)
    db, bi = _common_denominator(b)
    # entry j of a' B = sum_i a_i * B[i][j] with B[i][j] = b[(j - i) mod k]
    out = [sum([ai[i] * bi[(j - i) % k] for i in range(k)]) for j in range(k)]
    return _fractions(out, da * db)


def bordered_circulant(
    hub: Scalar,
    borders: tuple[Scalar, Scalar],
    specs: tuple[Sequence[Scalar], Sequence[Scalar], Sequence[Scalar]],
) -> RatMatrix:
    """The order-(2k+1) matrix [[hub, b1 e', b2 e'], [b1 e, P, Q], [b2 e, Q', R]].

    borders is (b1, b2), and P, Q, R are the circulants of the three specs
    (p, q, r) of length k.  Every entry is brought to one common
    denominator once, and the rim rows are materialize's rotations.
    Raises like circulant_product.
    """
    (b1, b2), (p, q, r) = borders, specs
    k = _length(p, q, r)
    den, ints = _common_denominator([hub, b1, b2, *p, *q, *r])
    h, b1, b2 = ints[:3]
    p, q, r = ints[3 : 3 + k], ints[3 + k : 3 + 2 * k], ints[3 + 2 * k :]
    out = [h] + [b1] * k + [b2] * k
    # Q' is the circulant whose spec is q with its tail reversed
    for border, left, right in ((b1, p, q), (b2, q[:1] + q[:0:-1], r)):
        for a, b in zip(_rotations(left), _rotations(right)):
            out += [border, *a, *b]
    return RatMatrix._from_ints(2 * k + 1, 2 * k + 1, den, out)


# -- named specs used throughout the package -------------------------------


def cycle_signless_laplacian_spec(order: int) -> Vector:
    """Spec (2, 1, 0, ..., 0, 1): twice the identity plus the cycle adjacency."""
    if order < 2:
        raise ValueError(f"cycle needs order >= 2, got {order}")
    row = [frac(0)] * order
    row[0] = frac(2)
    row[1] += 1
    row[order - 1] += 1
    return tuple(row)


def rim_distance_spec(order: int) -> Vector:
    """Spec (0, 1, 2, ..., 2, 1): pairwise distances around a wheel rim,
    where any two non-adjacent rim vertices are 2 apart via the hub."""
    if order < 2:
        raise ValueError(f"rim needs order >= 2, got {order}")
    row = [frac(2)] * order
    row[0] = frac(0)
    row[1] = frac(1)
    row[order - 1] = frac(1)
    return tuple(row)


def alternating_signs(length: int) -> Vector:
    """The vector (1, -1, 1, -1, ...)."""
    return tuple([Fraction(1) if i % 2 == 0 else Fraction(-1) for i in range(length)])
