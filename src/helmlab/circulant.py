"""Circulant matrices, bordered circulant elements and their exact algebra.

A circulant matrix is determined by its first row, its spec: a plain
sequence of ints and Fractions.  Every later row is the cyclic
right-shift of the previous one.  Products of circulants are again
circulant, and the product spec is the cyclic convolution of the two
specs: entry j is sum_i a_i b_((j - i) mod k).  Circulants of one order
share the Fourier eigenvectors, which is how ``helmlab eig`` reads the
rim blocks' spectra off exact block identities
(characterization.check_conditions_i_vi).

The convolution is one big-int product, packed by exact_core's
``_kronecker``, the Kronecker substitution of RatMatrix.__matmul__
(D. Harvey, J. Symbolic Comput. 44, 2009): each integer spec is one
Python int with one signed slot per entry, the product's 2k-1 slots
hold the linear convolution, and folding slot j + k onto slot j makes it
cyclic.  circulant_product is that kernel on specs.

D, L and the kernel projector V of a helm graph share one bordered shape
in the vertex order (hub, rim, pendants); bordered_circulant lays it out.
Two exact types carry the algebra of these shapes on specs instead of
dense matrices: Circulant, a k x k circulant, and Bordered, an element
of order 2k+1 made of a hub scalar, row and column border scalars and a
2x2 grid of circulants.  Both keep their integers in RatMatrix's store
(exact_core's ``_IntStore``), which gives them +, -, scalar *, ==, hash
and is_zero, canonical like a RatMatrix; each adds @ and a dense():
Circulant's is materialize, Bordered's reuses the bordered_circulant
layout.  A product of two bordered elements is eight circulant products
and O(k) scalar terms.  The rim blocks A, B and S exist only as
Circulants (closed_form.HelmCase), while L and D stay dense, since the
dense oracles read them.  lift(form, *matrices) turns dense matrices
into the form its caller names, only after comparing every entry with
the element read off the matrix, so the dense matrices stay the single
source of truth: if one matrix is not exactly of the form, lift returns
None and the caller keeps the dense matrices.  The report lifts only L
and D, to Bordered.

A spec is delta-symmetric (z_i = z_{k+2-i} for i = 2..k, 1-based, with
k its length and z_1 free) exactly when its circulant is symmetric; such
specs are closed under circulant_product.

The module also hosts the two special circulants D is built from: the
signless Laplacian of the rim cycle, spec (2,1,0,...,0,1), and the rim
distance circulant, spec (0,1,2,...,2,1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence, Union

from .exact_core import (
    RatMatrix,
    Scalar,
    Vector,
    _common_denominator,
    _fractions,
    _IntStore,
    _kronecker,
    frac,
)


def _length(*specs: Sequence[Scalar]) -> int:
    """The common length of specs; ValueError if they differ or are empty."""
    k = len(specs[0])
    if any(len(s) != k for s in specs):
        raise ValueError(f"specs of length {[len(s) for s in specs]}")
    if not k:
        raise ValueError("circulant spec must be nonempty")
    return k


def _rotations(row: Sequence[int]) -> list[Sequence[int]]:
    """Rows of the circulant with first row row: row i is its right-shift by i."""
    k = len(row)
    twice = row + row
    return [twice[k - i : 2 * k - i] for i in range(k)]


def _bordered_ints(
    hub: int, rows: Sequence[int], cols: Sequence[int], specs: Sequence[Sequence[int]]
) -> list[int]:
    """Row-major entries of [[hub, r1 e', r2 e'], [c1 e, P, Q], [c2 e, R, T]].

    rows is (r1, r2), cols (c1, c2) and specs the first rows of P, Q, R, T.
    """
    (r1, r2), (c1, c2), (p, q, r, t) = rows, cols, specs
    k = len(p)
    out = [hub] + [r1] * k + [r2] * k
    for border, left, right in ((c1, p, q), (c2, r, t)):
        for a, b in zip(_rotations(left), _rotations(right)):
            out.append(border)
            out += a
            out += b
    return out


def _convolution_sum(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[int]:
    """The sum over (a, b) in pairs of the cyclic convolutions
    c_j = sum_i a_i b_((j - i) mod k), for integer specs of one length k.

    Every entry of the operands and of the summed linear convolutions
    p_t = sum_(i+l=t) a_i b_l has absolute value at most
    bound = (number of pairs) k max|a| max|b| (both maxima floored at 1),
    so ``_kronecker(bound)`` packs each spec into one int with one slot
    per entry; the sum of the products of the packed pairs holds
    p_0..p_(2k-2) in its slots, and the fold c_j = p_j + p_(j+k) makes the
    convolution cyclic.
    """
    k = len(pairs[0][0])
    top_a = max([max(map(abs, a)) for a, _ in pairs] + [1])
    top_b = max([max(map(abs, b)) for _, b in pairs] + [1])
    pack, unpack = _kronecker(len(pairs) * k * top_a * top_b)
    packed = pack(list(chain.from_iterable(chain.from_iterable(pairs))), k)  # a, b, a, b, ...
    p = unpack([sum(map(mul, packed[::2], packed[1::2]))], 2 * k - 1)
    return [x + y for x, y in zip(p, p[k:])] + p[k - 1 : k]


def materialize(spec: Sequence[Scalar]) -> RatMatrix:
    """Dense circulant matrix: row i is the right-shift of the spec by i.

    Circulant(spec).dense(): the spec is brought to one common
    denominator once, and the rows are rotations of its integer
    numerators.  An empty spec raises ValueError, an entry that is neither
    an int nor a Fraction TypeError.
    """
    return Circulant(spec).dense()


def circulant_product(a: Sequence[Scalar], b: Sequence[Scalar]) -> Vector:
    """Spec of the product: first row of A times the matrix B.

    Circulants of equal order commute, so this is also the spec of B A.
    It is the packed cyclic convolution of the two integer specs, under
    the product of their denominators (Circulant's @).  Raises like
    materialize, and ValueError for specs of unequal length.
    """
    _length(a, b)
    return (Circulant(a) @ Circulant(b)).spec


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
    # Q' is the circulant whose spec is q with its tail reversed
    out = _bordered_ints(h, (b1, b2), (b1, b2), (p, q, q[:1] + q[:0:-1], r))
    return RatMatrix._from_ints(2 * k + 1, 2 * k + 1, den, out)


# -- the exact algebra on specs ----------------------------------------------


class Circulant(_IntStore):
    """A k x k circulant, kept as its integer spec over one denominator.

    ``Circulant(spec)`` takes a nonempty sequence of ints and Fractions.
    """

    __slots__ = ()

    def __new__(cls, spec: Sequence[Scalar]):
        _length(spec)
        return cls._reduced(*_common_denominator(spec))

    @property
    def spec(self) -> Vector:
        return _fractions(self._ints, self._den)

    def dense(self) -> RatMatrix:
        k = len(self._ints)
        ints = [x for r in _rotations(self._ints) for x in r]
        return RatMatrix._from_ints(k, k, self._den, ints)

    def __matmul__(self, other: "Circulant") -> "Circulant":
        if not self._is_like(other):
            return NotImplemented
        product = _convolution_sum([(self._ints, other._ints)])
        return self._reduced(self._den * other._den, product)

    def __repr__(self) -> str:
        return f"Circulant({list(self.spec)})"


class Bordered(_IntStore):
    """[[h, r1 e', r2 e'], [c1 e, P, Q], [c2 e, R, T]], of order 2k+1.

    The shape of bordered_circulant with the two borders apart and the
    lower-left block free: a hub h, a row border (r1, r2), a column border
    (c1, c2) and a grid ((P, Q), (R, T)) of k x k circulants.  Stored as
    the integers (h, r1, r2, c1, c2, p, q, r, t) over one denominator,
    p..t the specs.  ``Bordered(hub, rows, cols, blocks)`` takes the
    scalars and a grid of Circulants of one order.
    """

    __slots__ = ()

    def __new__(
        cls,
        hub: Scalar,
        rows: tuple[Scalar, Scalar],
        cols: tuple[Scalar, Scalar],
        blocks: tuple[tuple[Circulant, Circulant], tuple[Circulant, Circulant]],
    ):
        (p, q), (r, t) = blocks
        _length(p._ints, q._ints, r._ints, t._ints)
        return cls._reduced(
            *_common_denominator([hub, *rows, *cols, *p.spec, *q.spec, *r.spec, *t.spec])
        )

    @property
    def order(self) -> int:
        return (len(self._ints) - 5) // 2 + 1

    @property
    def hub(self) -> Fraction:
        return Fraction(self._ints[0], self._den)

    @property
    def rows(self) -> Vector:
        return _fractions(self._ints[1:3], self._den)

    @property
    def cols(self) -> Vector:
        return _fractions(self._ints[3:5], self._den)

    def _specs(self) -> list[tuple[int, ...]]:
        """The integer specs of P, Q, R, T over the element's denominator."""
        e, k = self._ints, (len(self._ints) - 5) // 4
        return [e[5 + i * k : 5 + (i + 1) * k] for i in range(4)]

    @property
    def blocks(self) -> tuple[tuple[Circulant, Circulant], tuple[Circulant, Circulant]]:
        p, q, r, t = [Circulant._reduced(self._den, s) for s in self._specs()]
        return ((p, q), (r, t))

    def dense(self) -> RatMatrix:
        e, n = self._ints, self.order
        ints = _bordered_ints(e[0], e[1:3], e[3:5], self._specs())
        return RatMatrix._from_ints(n, n, self._den, ints)

    def __matmul__(self, other: "Bordered") -> "Bordered":
        """[[h, r'], [c, M]] [[g, s'], [d, N]] by blocks, M and N 2x2 grids.

        With e'C = sigma(C) e' for a circulant C, sigma the sum of its
        spec, and e'e = k: the hub is h g + k r'd, the row border
        h s + sigma(M)'r, the column border g c + sigma(M) d, and the
        blocks M N + c s' J: block (i, j) is one packed sum of the two
        products M_i0 N_0j + M_i1 N_1j, eight circulant products in all,
        plus c_i s_j in every entry.
        """
        if not self._is_like(other):
            return NotImplemented
        (h, *r), (g, *s) = self._ints[:3], other._ints[:3]
        c, d = self._ints[3:5], other._ints[3:5]
        m, n = self._specs(), other._specs()
        k = len(m[0])
        sm, sn = list(map(sum, m)), list(map(sum, n))
        out = [h * g + k * (r[0] * d[0] + r[1] * d[1])]
        out += [h * s[j] + r[0] * sn[j] + r[1] * sn[2 + j] for j in (0, 1)]
        out += [c[i] * g + sm[2 * i] * d[0] + sm[2 * i + 1] * d[1] for i in (0, 1)]
        for i in (0, 1):
            for j in (0, 1):
                shift = c[i] * s[j]
                product = _convolution_sum([(m[2 * i], n[j]), (m[2 * i + 1], n[2 + j])])
                out += [x + shift for x in product]
        return self._reduced(self._den * other._den, out)

    def __repr__(self) -> str:
        return f"Bordered(hub={self.hub}, rows={self.rows}, cols={self.cols}, blocks={self.blocks})"


def _circulant_form(m: RatMatrix) -> Union[Circulant, None]:
    """m as a Circulant when m equals the circulant of its first row, else None."""
    k, e = m.rows, m._ints
    twice = e[:k] * 2
    for i in range(1, k):
        if e[i * k : (i + 1) * k] != twice[k - i : 2 * k - i]:
            return None
    return Circulant._reduced(m._den, e[:k])


def _bordered_form(m: RatMatrix) -> Union[Bordered, None]:
    """m as a Bordered element when m, of odd order 2k+1 >= 3, equals the
    element read off its first row and column and the first row of each
    block, else None."""
    n, e = m.rows, m._ints
    if n < 3 or n % 2 == 0:
        return None
    k = (n - 1) // 2
    top, low = n + 1, (k + 1) * n + 1  # first entries of P and of R
    rows, cols = (e[1], e[k + 1]), (e[n], e[(k + 1) * n])
    specs = [e[top : top + k], e[top + k : top + 2 * k], e[low : low + k], e[low + k : low + 2 * k]]
    if tuple(_bordered_ints(e[0], rows, cols, specs)) != e:
        return None
    return Bordered._reduced(m._den, [e[0], *rows, *cols, *[x for s in specs for x in s]])


def lift(form: type, *matrices: RatMatrix) -> Union[list, None]:
    """The matrices as elements of form (Circulant or Bordered), or None.

    Each matrix is compared entry by entry with the element of form read
    off it, in O(order^2) integer comparisons.  The elements come back
    only when every matrix is square, nonempty and equal to its element;
    otherwise lift returns None, and the caller runs the same operator
    code on the dense matrices.
    """
    read = {Circulant: _circulant_form, Bordered: _bordered_form}[form]
    lifted = [read(m) if m.is_square() and m.rows else None for m in matrices]
    return None if any(x is None for x in lifted) else lifted


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
