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

D, L, the kernel projector V, the closed form X, the certificate's W
and D's pseudoinverse of a helm graph share one bordered shape in the
vertex order (hub, rim, pendants).  Two exact types carry the
algebra of these shapes on specs instead of dense matrices: Circulant, a
k x k circulant, and Bordered, an element of order 2k+1 made of a hub
scalar, row and column border scalars and a 2x2 grid of circulants.
Bordered(hub, rows, cols, specs) takes the four specs of the grid the
way Circulant(spec) takes one, and Bordered.dense() is the one layout
of the shape: bordered_circulant builds the symmetric element and
returns its dense().  Both types keep their integers in RatMatrix's
store (exact_core's ``_IntStore``), which gives them +, -, scalar *, ==,
hash and is_zero, canonical like a RatMatrix; each adds @ and a dense(),
Circulant's being materialize, and Bordered adds is_symmetric and the
matrix-vector product _mat_vec, with RatMatrix's signature.  A product
of two bordered elements is eight circulant products under one packing
and O(k) scalar terms; a matrix-vector product is spec sums for a
vector constant on the rim and on the pendants, and packed cyclic
correlations, under one packing, otherwise.  The rim blocks A, B and S
exist only as Circulants (closed_form.HelmCase), while D and L are
built dense, since the dense oracles read them.  lift(m) is the one
reader: it reads the element off m's first row, first column and the
first row of each block, and returns it only when the element's dense()
equals m, compared row by row in place, so the dense matrix stays the
single source of truth: a matrix that is not exactly of the form gives
None, and the caller keeps it dense.  The report
lifts D, L and the pseudoinverse once each.  When D and L lift, it runs
the closed-form, kernel-projector, Penrose-certificate and uniqueness
checks on elements: X, W, V and 2 P_K are then built as elements and
never laid out (characterization).

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
)


def _length(*specs: Sequence[Scalar]) -> int:
    """The common length of specs; ValueError if they differ or are empty."""
    k = len(specs[0])
    if any(len(s) != k for s in specs):
        raise ValueError(f"specs of length {[len(s) for s in specs]}")
    if not k:
        raise ValueError("circulant spec must be nonempty")
    return k


def _rotations(row: Sequence[int]) -> list[list[int]]:
    """Rows of the circulant with first row row: row i is its right-shift by i.

    Lists even for a tuple row: CPython keeps freed short tuples on free
    lists, which would hold every rotation after the caller copies it."""
    k = len(row)
    twice = [*row, *row]
    return [twice[k - i : 2 * k - i] for i in range(k)]


def _transposed(spec: Sequence[int]) -> Sequence[int]:
    """The spec of the transposed circulant: spec with its tail reversed."""
    return spec[:1] + spec[:0:-1]


def _convolution_sum(groups: Sequence[Sequence[tuple[Sequence[int], Sequence[int]]]]) -> list[list[int]]:
    """For each group of pairs, the sum over (a, b) in it of the cyclic
    convolutions c_j = sum_i a_i b_((j - i) mod k), for integer specs of
    one length k.

    Every entry of the operands and of each group's summed linear
    convolutions p_t = sum_(i+l=t) a_i b_l has absolute value at most
    bound = (pairs in the largest group) k max|a| max|b|, the maxima over
    all groups and floored at 1, so one ``_kronecker(bound)`` packs every
    spec into one int with one slot per entry; the sum of the products of
    a group's packed pairs holds its p_0..p_(2k-2) in its slots, one
    unpack reads every group's, and the fold c_j = p_j + p_(j+k) makes
    each convolution cyclic.
    """
    pairs = list(chain.from_iterable(groups))
    k = len(pairs[0][0])
    top_a = max([max(map(abs, a)) for a, _ in pairs] + [1])
    top_b = max([max(map(abs, b)) for _, b in pairs] + [1])
    pack, unpack = _kronecker(max(map(len, groups)) * k * top_a * top_b)
    packed = pack(list(chain.from_iterable(chain.from_iterable(pairs))), k)  # a, b, a, b, ...
    sums, start = [], 0
    for group in groups:
        end = start + 2 * len(group)
        sums.append(sum(map(mul, packed[start:end:2], packed[start + 1 : end : 2])))
        start = end
    width = 2 * k - 1
    p = unpack(sums, width)
    return [
        [x + y for x, y in zip(p[s : s + k - 1], p[s + k : s + width])] + p[s + k - 1 : s + k]
        for s in range(0, len(p), width)
    ]


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
    den: int = 1,
) -> RatMatrix:
    """The order-(2k+1) matrix [[hub, b1 e', b2 e'], [b1 e, P, Q], [b2 e, Q', R]] / den.

    borders is (b1, b2), and P, Q, R are the circulants of the three specs
    (p, q, r) of length k: the dense form of the symmetric Bordered
    element with both borders (b1, b2), over the nonzero integer den.
    With integer scalars and specs over den, as the closed forms give
    them, no entry becomes a Fraction: the element is reduced once, on its
    4k+5 integers, and laid out once.  Raises like circulant_product.
    """
    p, q, r = specs
    return (Bordered(hub, borders, borders, (p, q, _transposed(q), r)) * Fraction(1, den)).dense()


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
        return RatMatrix._laid_out(k, k, self._den, ints)

    def __matmul__(self, other: "Circulant") -> "Circulant":
        if not self._is_like(other):
            return NotImplemented
        (product,) = _convolution_sum([[(self._ints, other._ints)]])
        return self._reduced(self._den * other._den, product)

    def __repr__(self) -> str:
        return f"Circulant({list(self.spec)})"


class Bordered(_IntStore):
    """[[h, r1 e', r2 e'], [c1 e, P, Q], [c2 e, R, T]], of order 2k+1.

    The shape of bordered_circulant with the two borders apart and the
    lower-left block free: a hub h, a row border (r1, r2), a column border
    (c1, c2) and a grid ((P, Q), (R, T)) of k x k circulants.  Stored as
    the integers (h, r1, r2, c1, c2, p, q, r, t) over one denominator,
    p..t the specs.  ``Bordered(hub, rows, cols, specs)`` takes the
    scalars and the four specs (p, q, r, t) of one length, the way
    ``Circulant(spec)`` takes one.
    """

    __slots__ = ()

    def __new__(
        cls,
        hub: Scalar,
        rows: tuple[Scalar, Scalar],
        cols: tuple[Scalar, Scalar],
        specs: tuple[Sequence[Scalar], Sequence[Scalar], Sequence[Scalar], Sequence[Scalar]],
    ):
        (r1, r2), (c1, c2), (p, q, r, t) = rows, cols, specs
        _length(p, q, r, t)
        return cls._reduced(*_common_denominator([hub, r1, r2, c1, c2, *p, *q, *r, *t]))

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
        """The matrix, row-major: the hub and the row border, then each rim
        row, a column border scalar followed by the rotations of two specs.
        Every integer of the element appears in it, so it is canonical as
        laid out, with no reduction pass."""
        e, n = self._ints, self.order
        p, q, r, t = self._specs()
        k = len(p)
        out = [e[0]] + [e[1]] * k + [e[2]] * k
        for border, left, right in ((e[3], p, q), (e[4], r, t)):
            for a, b in zip(_rotations(left), _rotations(right)):
                out.append(border)
                out += a
                out += b
        return RatMatrix._laid_out(n, n, self._den, out)

    def is_symmetric(self) -> bool:
        """Whether the element equals its transpose: equal borders, P and T
        symmetric and R = Q', a circulant's transpose being the circulant
        of its spec with the tail reversed."""
        p, q, r, t = self._specs()
        e = self._ints
        return e[1:3] == e[3:5] and r == _transposed(q) and p == _transposed(p) and t == _transposed(t)

    def _mat_vec(self, v: Sequence[Scalar]) -> tuple[list[int], int]:
        """(ints, den) with self v = ints / den, den > 0, not reduced.

        With v = (x, y', z')' over integers, the hub entry is
        h x + r1 e'y + r2 e'z, the rim part c1 x e + P y + Q z and the
        pendant part c2 x e + R y + T z.  For y and z constant, C e =
        sigma(C) e makes each part one spec sum.  Otherwise
        (C y)_i = sum_j c_(j-i) y_j is the cyclic convolution of y with the
        spec of C', so each part is one packed sum, both under one packing
        (_convolution_sum).  A vector of another length raises ValueError.
        """
        n = self.order
        if len(v) != n:
            raise ValueError(f"element of order {n}, vector length {len(v)}")
        dv, x = _common_denominator(v)
        k, e, m = (n - 1) // 2, self._ints, self._specs()
        y, z = x[1 : k + 1], x[k + 1 :]
        out = [e[0] * x[0] + e[1] * sum(y) + e[2] * sum(z)]
        if y.count(y[0]) == k and z.count(z[0]) == k:
            sums = list(map(sum, m))
            for i in (0, 1):
                out += [e[3 + i] * x[0] + sums[2 * i] * y[0] + sums[2 * i + 1] * z[0]] * k
        else:
            parts = _convolution_sum(
                [[(y, _transposed(m[2 * i])), (z, _transposed(m[2 * i + 1]))] for i in (0, 1)]
            )
            for i, part in enumerate(parts):
                out += [e[3 + i] * x[0] + s for s in part]
        return out, self._den * dv

    def __matmul__(self, other: "Bordered") -> "Bordered":
        """[[h, r'], [c, M]] [[g, s'], [d, N]] by blocks, M and N 2x2 grids.

        With e'C = sigma(C) e' for a circulant C, sigma the sum of its
        spec, and e'e = k: the hub is h g + k r'd, the row border
        h s + sigma(M)'r, the column border g c + sigma(M) d, and the
        blocks M N + c s' J: block (i, j) is one packed sum of the two
        products M_i0 N_0j + M_i1 N_1j, eight circulant products under one
        packing, plus c_i s_j in every entry.
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
        grid = [(i, j) for i in (0, 1) for j in (0, 1)]
        products = _convolution_sum([[(m[2 * i], n[j]), (m[2 * i + 1], n[2 + j])] for i, j in grid])
        for (i, j), product in zip(grid, products):
            shift = c[i] * s[j]
            out += [x + shift for x in product]
        return self._reduced(self._den * other._den, out)

    def __repr__(self) -> str:
        return f"Bordered(hub={self.hub}, rows={self.rows}, cols={self.cols}, blocks={self.blocks})"


def lift(m: RatMatrix) -> Union[Bordered, None]:
    """m as a Bordered element, or None.

    The element is read off m's first row and column and the first row of
    each block, and comes back only when its dense() equals m: each row of
    m is compared, slice by slice, with the borders and the rotations of
    the specs, an O(order^2) comparison of integers with no layout.  Its
    integers are then all of m's, so it is canonical over m's
    denominator.  A matrix that is not square of odd order at least 3, or
    not exactly of the form, gives None, and the caller runs the same
    operator code on the dense matrix.
    """
    n, e = m.rows, m._ints
    if m.cols != n or n < 3 or n % 2 == 0:
        return None
    k = (n - 1) // 2
    top, low = n + 1, (k + 1) * n + 1  # first entries of P and of R
    scalars = _, r1, r2, c1, c2 = e[0], e[1], e[k + 1], e[n], e[(k + 1) * n]
    if e[1:n] != (r1,) * k + (r2,) * k:
        return None
    for border, first in ((c1, n), (c2, (k + 1) * n)):
        twice_l, twice_r = e[first + 1 : first + k + 1] * 2, e[first + k + 1 : first + n] * 2
        for i in range(1, k):
            row = first + i * n
            if (
                e[row] != border
                or e[row + 1 : row + k + 1] != twice_l[k - i : 2 * k - i]
                or e[row + k + 1 : row + n] != twice_r[k - i : 2 * k - i]
            ):
                return None
    return Bordered._canonical(m._den, scalars + e[top : top + 2 * k] + e[low : low + 2 * k])


# -- named specs used throughout the package -------------------------------


def cycle_signless_laplacian_spec(order: int) -> tuple[int, ...]:
    """Integer spec (2, 1, 0, ..., 0, 1): twice the identity plus the cycle adjacency."""
    if order < 2:
        raise ValueError(f"cycle needs order >= 2, got {order}")
    row = [0] * order
    row[0] = 2
    row[1] += 1
    row[order - 1] += 1
    return tuple(row)


def rim_distance_spec(order: int) -> tuple[int, ...]:
    """Integer spec (0, 1, 2, ..., 2, 1): pairwise distances around a wheel
    rim, where any two non-adjacent rim vertices are 2 apart via the hub."""
    if order < 2:
        raise ValueError(f"rim needs order >= 2, got {order}")
    row = [2] * order
    row[0] = 0
    row[1] = 1
    row[order - 1] = 1
    return tuple(row)


def alternating_signs(length: int) -> Vector:
    """The vector (1, -1, 1, -1, ...)."""
    return tuple([Fraction(1) if i % 2 == 0 else Fraction(-1) for i in range(length)])
