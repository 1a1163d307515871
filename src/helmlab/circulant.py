"""Circulant matrices and delta-symmetric vectors.

A circulant matrix is determined by its first row; every later row is
the cyclic right-shift of the previous one.  Products of circulants are
again circulant, and the product spec is the first row times the other
matrix.  Circulants of one order share the Fourier eigenvectors, which
is how ``helmlab eig`` reads the rim blocks' spectra off exact block
identities (characterization.check_conditions_i_vi).

A spec is delta-symmetric (z_i = z_{k+2-i} for i = 2..k, 1-based, with
k its length and z_1 free) exactly when its circulant is symmetric; such
specs are closed under circulant_product.

Also hosts the two special circulants the helm distance matrix is built
from: the signless Laplacian of the rim cycle, spec (2,1,0,...,0,1), and
the rim distance circulant, spec (0,1,2,...,2,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import (
    RatMatrix,
    Vector,
    _common_denominator,
    frac,
    vec,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CirculantSpec:
    """First row of a circulant matrix."""

    first_row: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_row", vec(self.first_row))
        if not self.first_row:
            raise ValueError("circulant spec must be nonempty")

    def __len__(self) -> int:
        return len(self.first_row)


def materialize(spec: CirculantSpec) -> RatMatrix:
    """Dense circulant matrix: row i is the right-shift of the spec by i.

    The spec is brought to one common denominator once, and the rows are
    rotations of its integer numerators.
    """
    den, row = _common_denominator(spec.first_row)
    k = len(row)
    ints = [x for i in range(k) for x in row[k - i :] + row[: k - i]]
    return RatMatrix._from_ints(k, k, den, ints)


def circulant_product(a: CirculantSpec, b: CirculantSpec) -> CirculantSpec:
    """Spec of the product: first row of A times the matrix B.

    Circulants of equal order commute, so this is also the spec of B A.
    """
    if len(a) != len(b):
        raise ValueError(f"specs of length {len(a)} and {len(b)}")
    ar, br = a.first_row, b.first_row
    k = len(ar)
    # entry j of a' B = sum_i a_i * B[i][j] with B[i][j] = br[(j - i) mod k]
    out = [sum((ar[i] * br[(j - i) % k] for i in range(k)), _ZERO) for j in range(k)]
    return CirculantSpec(tuple(out))


# -- named specs used throughout the package -------------------------------


def cycle_signless_laplacian_spec(order: int) -> CirculantSpec:
    """Spec (2, 1, 0, ..., 0, 1): twice the identity plus the cycle adjacency."""
    if order < 2:
        raise ValueError(f"cycle needs order >= 2, got {order}")
    row = [frac(0)] * order
    row[0] = frac(2)
    row[1] += 1
    row[order - 1] += 1
    return CirculantSpec(tuple(row))


def rim_distance_spec(order: int) -> CirculantSpec:
    """Spec (0, 1, 2, ..., 2, 1): pairwise distances around a wheel rim,
    where any two non-adjacent rim vertices are 2 apart via the hub."""
    if order < 2:
        raise ValueError(f"rim needs order >= 2, got {order}")
    row = [frac(2)] * order
    row[0] = frac(0)
    row[1] = frac(1)
    row[order - 1] = frac(1)
    return CirculantSpec(tuple(row))


def alternating_signs(length: int) -> Vector:
    """The vector (1, -1, 1, -1, ...)."""
    return tuple([Fraction(1) if i % 2 == 0 else Fraction(-1) for i in range(length)])
