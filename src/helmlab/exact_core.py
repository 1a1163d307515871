"""Exact linear algebra over the rationals.

Dense rational matrices, plus the generic oracles (rank, inverse,
Moore-Penrose pseudoinverse, inertia, kernel bases) against which every
closed-form identity in this package is verified.  There is no floating
point and no tolerance anywhere in this module: equality of matrices
means entrywise equality of reduced fractions.

``RatMatrix`` keeps its entries, row-major, in the package's one integer
store (``_IntStore``, which ``circulant.Circulant`` and
``circulant.Bordered`` share): one positive denominator and integers
with no common factor, so the zero matrix has denominator 1 and equal
matrices have equal storage.  Every operation works on the integers:

* the store's ``+`` and ``-`` bring both operands to the lcm of their
  denominators, and a scalar multiplies the integers by its numerator
  and the denominator by its denominator;
* matmul is a Kronecker-packed integer product under the product of the
  two denominators (Kronecker substitution; see D. Harvey, J. Symbolic
  Comput. 44, 2009): each row of B becomes one Python int with one
  fixed-width slot per entry, so a row of the product costs one big-int
  multiply-add per nonzero entry of that row of A.  ``_kronecker``, which
  the circulant convolution uses too, picks the slot width from a bound
  on the entries and packs and unpacks the slots;
* one fraction-free Gauss-Jordan pass serves every general oracle: each
  row is divided once by its content, then a row update is
  ``(p*row - f*lead) // prev``, exact by Bareiss's theorem (Bareiss 1968,
  Math. Comp. 22); each pivot row ends as the last pivot q times its
  reduced-echelon row, and q, the row contents and the permutation sign
  give the determinant.  ``rank`` and ``determinant`` read only the
  pivots and q, so they run the pass forward only, updating the rows
  below each pivot (the same pivots and q);
* a rank-k correction ``scale * M - U V`` of integer rows is one
  ``_rank_update``, swept row by row for one or two terms: the
  congruence's Schur steps, ``Decomposition.candidate``
  (-L/2 + alpha ww'), the projection of both pseudoinverse routes and, in
  ``characterization``, the certificate's W and 2 P_K; a matrix-vector
  product is one integer dot product per row (``_mat_vec``), under the
  product of the denominators;
* the inertia is a Sylvester congruence reduction in integers on the
  lower triangle.  Each step takes a pivot block P: the diagonal entry
  of least magnitude with every diagonal pivot uncoupled from it, or a
  2x2 pivot where the whole diagonal vanishes.  It leaves
  l M_QQ - U K U' (U the block's columns on the other indices Q,
  K = l P^-1), a positive multiple of the Schur complement, so signs and
  hence the inertia are preserved.  U K U' is swept row by row for one
  or two pivots and is one packed product for three or more.  The same
  kernel can carry its row transform, which turns it into a
  factorization (see below).

``Fraction`` values are made only where entries are read: indexing,
``row``, ``to_lists``, ``mul_vector`` and the vectors the oracles return.
They equal the ones plain ``Fraction`` arithmetic gives.

The pseudoinverse is pinv(m) = pinv(m) m G m pinv(m) = (I - P_N) G (I - P_Q)
for any generalized inverse G of m (m G m = m), with P_N and P_Q the
orthogonal projections onto ker m and ker m'.  ``pseudoinverse`` takes G
and bases of N and Q from one Gauss-Jordan pass on [A | d I]: its
reduced echelon form R = E m gives G = S E (S puts row t at the t-th
pivot row, and R S R = R); ``factor_symmetric`` takes G and N = Q from
its factorization.  Both project G the same way (``_project_out``):
fraction-free Gram-Schmidt makes the bases of N and Q orthogonal
integer rows, and each basis vector p takes one rank-one projection
I - p p'/(p'p) of its side, a one-term ``_rank_update`` with no product
and no Gram inverse.  The inertia's 2x2 pivots [[0, b], [b, 0]] take
the same step as its blocks of 1x1 pivots, with K = sgn(b) times the
swap.  All stay purely rational and independent of any closed-form
expression they are used to check.

``factor_symmetric`` gives the inertia, determinant and pseudoinverse
of a symmetric matrix together.  Above a small order (``_SCHUR_CUTOFF``)
it factors the matrix once by a Schur-complement recursion (Bunch and
Hopcroft, Math. Comp. 28, 1974), which reduces the elimination to
half-size eliminations and packed products; ``determinant`` and
``pseudoinverse`` read the Gauss-Jordan pass and so stay independent
routes to check it, and ``inertia`` runs the congruence without the
transform.  For M = [[A, B], [B', E]] with A nonsingular, Y = A^-1 B and
S = E - B' Y:

* inertia(M) = inertia(A) + inertia(S) (Haynsworth, LAA 1, 1968);
* det M = det A * det S;
* G = [[A^-1 + Y S^- Y', -Y S^-], [-S^- Y', S^-]] is a generalized
  inverse of M when S^- is one of S, and symmetric when S^- is;
* ker M = {(-Y z, z) : z in ker S}.

A and S are factored the same way, and blocks at or below the cutoff by
one congruence pass that applies each row operation to a transform E
too (symmetric 1x1 and 2x2 pivots, after Bunch and Kaufman, Math.
Comp. 31, 1977).  E's rows are plain full-length integer rows over one
common scale that start as the rows of I, and a step leaves
l E_Q - U K F for them, F the block's own rows, by the same update as
the triangle.  E M E' is then block diagonal: its pivots give the
inertia and, as E is unit lower triangular in pivot order, the
determinant; the rows of E that leave as zero rows span the kernel; and
G = F' Omega F, F the pivots' rows of E and Omega the inverses of the
pivot blocks, is a symmetric generalized inverse.  The indices are split
in one order: those with a nonzero diagonal entry first, then the other
indices of nonzero rows, then those of zero rows, each group ascending.
A principal block holding a zero row is singular, so zero rows never
lead; the kernel of an odd helm D shows up as such a row in every
trailing Schur complement.  If A is singular all the same, the block is
factored by the base pass whatever its order.  Both rules depend only on
the matrix, so the same input always takes the same path, and a
different path would change only the speed: the inertia, the
determinant and the pseudoinverse are unique.  The last is G projected
on both sides onto the complement of ker M (N = Q = ker M) by the same
``_project_out`` as ``pseudoinverse``.  A split's generalized inverse
[[A^- + Z Y', -Z], [-Z', S^-]], Z = Y S^-, and its kernel rows are laid
out over one denominator in one pass over the blocks' integer rows.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[Fraction, int]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


class VerificationError(RuntimeError):
    """An identity that must hold by construction failed exactly."""


def frac(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction (floats are rejected)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


# Small tuples below are built from lists, never from generators: a tuple
# built from a generator is allocated at a guessed length and resized, and
# CPython keeps freed short tuples on per-length free lists that only a
# full garbage collection empties.


def vec(values: Iterable[Scalar]) -> Vector:
    return tuple([frac(v) for v in values])


# -- integer representation ---------------------------------------------------


def _common_denominator(values: Iterable[Scalar]) -> tuple[int, list[int]]:
    """(d, ints) with d the lcm of the denominators and ints[i] = d * values[i].

    For reduced values (every ``Fraction`` is) d and ints have no common
    factor.  Plain ints come back as they are, over d = 1.  Anything but
    an int or a Fraction raises TypeError.
    """
    vals = list(values)
    types = {type(x) for x in vals}
    if types <= {int}:
        return 1, vals
    for t in types:
        if not issubclass(t, (int, Fraction)):
            raise TypeError(f"expected an exact scalar, got {t.__name__}")
    d = math.lcm(*{x.denominator for x in vals})
    return d, [x.numerator * (d // x.denominator) for x in vals]


def _fractions(ints: Sequence[int], den: int) -> Vector:
    """The reduced fractions ints[i] / den."""
    if den == 1:
        return tuple([Fraction(x) for x in ints])
    return tuple([Fraction(x, den) for x in ints])


# Slot sizes in bytes that a signed C integer array type reads directly,
# and for each byte count up to the widest of them the narrowest such size.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}
_SLOT_SIZES = {need: min([s for s in _SLOT_CODES if s >= need]) for need in range(1, max(_SLOT_CODES) + 1)}


def _kronecker(bound: int):
    """(pack, unpack): Kronecker substitution for ints of absolute value at most bound.

    A slot holds w bits, w a whole number of bytes that fits bound and a
    sign bit: the narrowest signed C array type that is wide enough, else
    the fewest bytes.  ``pack(ints, count)`` turns each run of count ints
    x_0, x_1, ... into the int ``sum x_t 2^(wt)``; ``unpack(values, count)``
    gives back the count slots of each such int, as one flat list.  A sum
    of products of packed ints is a packed int of the summed products, as
    long as every slot of it stays within bound.

    Both conversions run in C, in O(width).  With ``bias`` the constant
    that holds ``2^(w-1)`` in every slot, ``(x + bias) ^ bias`` turns a
    packed int x into its slots' two's-complement bytes (the biased slots
    are nonnegative, so nothing carries), and ``(y ^ bias) - bias`` turns
    such bytes y back into a packed int.  Slot bytes go through ``array``
    when a C type has width w, and through one ``int.to_bytes`` or
    ``int.from_bytes`` per slot otherwise.
    """
    need = (bound.bit_length() + 8) // 8  # bytes for the bound and a sign bit
    size = _SLOT_SIZES.get(need, need)
    code, order = _SLOT_CODES.get(size), sys.byteorder  # array is native-order, so these are too
    slot_bias = (1 << (8 * size - 1)).to_bytes(size, order)

    def pack(ints: Sequence[int], count: int) -> list[int]:
        if code:
            buf = array(code, ints).tobytes()
        else:
            buf = b"".join([x.to_bytes(size, order, signed=True) for x in ints])
        width, bias = size * count, int.from_bytes(slot_bias * count, order)
        if not width:
            return []
        return [(int.from_bytes(buf[t : t + width], order) ^ bias) - bias for t in range(0, len(buf), width)]

    def unpack(values: Sequence[int], count: int) -> list[int]:
        width, bias = size * count, int.from_bytes(slot_bias * count, order)
        buf = b"".join([((x + bias) ^ bias).to_bytes(width, order) for x in values])
        if code:
            slots = array(code)
            slots.frombytes(buf)
            return slots.tolist()
        return [int.from_bytes(buf[t : t + size], order, signed=True) for t in range(0, len(buf), size)]

    return pack, unpack


class _IntStore:
    """Integers ``_ints`` over one positive denominator ``_den``.

    Kept canonical, ``gcd(_den, *_ints) == 1`` (so zero has ``_den == 1``),
    so equal values have equal storage, and ``==`` and ``hash`` read the
    storage, the type and ``_shape()``.  A subclass says what the integers
    are: RatMatrix holds every entry, ``circulant.Circulant`` and
    ``circulant.Bordered`` the specs and scalars their entries repeat.
    The store keeps no shape (Bordered's ``rows`` and ``cols`` are its
    borders): RatMatrix adds its own ``rows`` and ``cols`` and overrides
    ``_shape`` and ``_like``.
    ``+``, ``-``, negation and scalar ``*`` act entrywise on the integers,
    under the lcm of the denominators; an operand of another type is
    NotImplemented (so Python raises TypeError), one of another shape a
    ValueError.
    """

    __slots__ = ("_den", "_ints")

    @classmethod
    def _reduced(cls, den: int, ints: Sequence[int]):
        """The element ints / den (den > 0), reduced to canonical form
        (already canonical over den = 1)."""
        g = math.gcd(den, *ints) if den > 1 else 1
        if g > 1:
            den //= g
            ints = [x // g for x in ints]
        return cls._canonical(den, ints)

    @classmethod
    def _canonical(cls, den: int, ints: Sequence[int]):
        """The element ints / den, which must be canonical already
        (den > 0, gcd(den, *ints) == 1): no reduction pass."""
        x = object.__new__(cls)
        x._den = den
        x._ints = tuple(ints)
        return x

    def _shape(self):
        """What besides the storage tells two elements of a type apart: by
        default the number of integers, which fixes a structured element's
        order."""
        return len(self._ints)

    # ints / den as an element of self's type and shape, reduced
    _like = _reduced

    def _is_like(self, other: object) -> bool:
        """Whether other has self's type; ValueError if it has another shape."""
        if type(other) is not type(self):
            return False
        if other._shape() != self._shape():
            raise ValueError(f"operands of unequal order or shape: {self!r} and {other!r}")
        return True

    def _combine(self, other: object, sign: int):
        """self + sign * other, under the lcm of the two denominators."""
        if not self._is_like(other):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        return self._like(den, [a * x + b * y for x, y in zip(self._ints, other._ints)])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like(self._den, [-x for x in self._ints])

    def __mul__(self, c: Scalar):
        cf = frac(c)
        p = cf.numerator
        return self._like(self._den * cf.denominator, [p * x for x in self._ints])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._ints == other._ints and self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash((self._shape(), self._den, self._ints))

    def is_zero(self) -> bool:
        return not any(self._ints)


class RatMatrix(_IntStore):
    """Immutable dense rational matrix: integer entries over one denominator.

    Row-major ``_ints`` and a positive ``_den`` with
    ``gcd(_den, *_ints) == 1``; the matrix is ``_ints / _den``.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions {rows}x{cols}")
        den, ints = _common_denominator(entries)
        if len(ints) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ints)}"
            )
        self.rows = rows
        self.cols = cols
        self._den = den
        self._ints = tuple(ints)

    @classmethod
    def _from_ints(cls, rows: int, cols: int, den: int, ints: list[int]) -> "RatMatrix":
        """The rows x cols matrix ints / den (den > 0), reduced to canonical form."""
        m = cls._reduced(den, ints)
        m.rows = rows
        m.cols = cols
        return m

    @classmethod
    def _laid_out(cls, rows: int, cols: int, den: int, ints: list[int]) -> "RatMatrix":
        """The rows x cols matrix ints / den laid out from a canonical
        structured element, every integer of which appears among ints, so
        that ints / den is canonical already: no reduction pass."""
        m = cls._canonical(den, ints)
        m.rows = rows
        m.cols = cols
        return m

    def _shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def _like(self, den: int, ints: Sequence[int]) -> "RatMatrix":
        return self._from_ints(self.rows, self.cols, den, ints)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        ints = [0] * (n * n)
        ints[:: n + 1] = [1] * n
        return cls._from_ints(n, n, 1, ints)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._from_ints(rows, cols, 1, [0] * (rows * cols))

    # -- access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return Fraction(self._ints[i * self.cols + j], self._den)

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return _fractions(self._ints[i * self.cols : (i + 1) * self.cols], self._den)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        for idx, bound in ((row_idx, self.rows), (col_idx, self.cols)):
            for i in idx:
                if not 0 <= i < bound:
                    raise IndexError(i)
        e, c = self._ints, self.cols
        return RatMatrix._from_ints(
            len(row_idx), len(col_idx), self._den, [e[i * c + j] for i in row_idx for j in col_idx]
        )

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Kronecker-packed integer product under the product of the denominators.

        Every entry of the integer product has absolute value at most
        ``bound = k * max|a| * max|b|`` (k the inner dimension), and so does
        every entry of B.  Row j of B becomes one int
        ``P_j = sum_t b_jt 2^(wt)`` (``_kronecker``), row i of the product
        is the single int ``sum(a_ij * P_j for nonzero a_ij)``, and its
        slots are the entries.
        """
        if type(other) is not RatMatrix:
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, n, k, m = self._ints, self.rows, self.cols, other.cols
        # max(., 1): the bound must also cover B's entries, which share its slots
        bound = k * max(max(map(abs, a), default=0), 1) * max(map(abs, other._ints), default=0)
        pack, unpack = _kronecker(bound)
        packed = pack(other._ints, m)
        totals = []
        for i in range(n):
            row = a[i * k : (i + 1) * k]
            totals.append(sum(map(mul, compress(row, row), compress(packed, row))))
        return RatMatrix._from_ints(n, m, self._den * other._den, unpack(totals, m))

    def transpose(self) -> "RatMatrix":
        e, c = self._ints, self.cols
        out: list[int] = []
        for j in range(c):
            out.extend(e[j::c])
        return RatMatrix._from_ints(c, self.rows, self._den, out)

    def mul_vector(self, v: Sequence[Scalar]) -> Vector:
        return _fractions(*_mat_vec(self, v))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        e, n = self._ints, self.rows
        return all(e[i * n : (i + 1) * n] == e[i::n] for i in range(n))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(min(self.rows, 6)))
        tail = " ..." if self.rows > 6 else ""
        return f"RatMatrix({self.rows}x{self.cols}: {body}{tail})"


class InertiaTriple(NamedTuple):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    i_plus: int
    i_minus: int
    i_zero: int


@dataclass(frozen=True)
class Decomposition:
    """Candidate triple (L, w, alpha) for an inverse of the form -L/2 + alpha*w*w'.

    L must be symmetric with all row sums zero (Laplacian-like), w must
    satisfy e'w = 1, and alpha must be nonzero.  Violations raise
    ValueError at construction time.
    """

    laplacian_like: RatMatrix
    w: Vector
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", vec(self.w))
        object.__setattr__(self, "alpha", frac(self.alpha))
        lap = self.laplacian_like
        if not lap.is_square() or lap.rows != len(self.w):
            raise ValueError("L must be square of the same order as w")
        if not lap.is_symmetric():
            raise ValueError("L must be symmetric")
        if any(_row_sums(lap)[0]):
            raise ValueError("L must have zero row sums")
        if sum(self.w, _ZERO) != 1:
            raise ValueError("w must satisfy e'w = 1")
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")

    @cached_property
    def candidate(self) -> RatMatrix:
        """The matrix -L/2 + alpha * w w' encoded by this (immutable) triple, built once.

        With L = A/d, w = v/c and alpha = a/b over integers, it is
        (-b c^2 A + 2 d a v v') / (2 d b c^2): one rank-one update of A's rows.
        """
        lap, a, b = self.laplacian_like, self.alpha.numerator, self.alpha.denominator
        c, v = _common_denominator(self.w)
        rows = _rank_update(-b * c * c, _int_rows(lap), [[-2 * lap._den * a * x for x in v]], [v])
        return _from_int_rows(rows, lap.cols, 2 * lap._den * b * c * c)


# -- elimination helpers --------------------------------------------------


def _int_rows(m: RatMatrix) -> list[list[int]]:
    """The rows of m's integer entries, as fresh lists (m times its denominator)."""
    e, c = m._ints, m.cols
    return [list(e[i * c : (i + 1) * c]) for i in range(m.rows)]


def _from_int_rows(rows: Sequence[Sequence[int]], cols: int, den: int) -> RatMatrix:
    """The matrix with the integer rows ``rows`` of length cols over den > 0, reduced."""
    return RatMatrix._from_ints(len(rows), cols, den, list(chain.from_iterable(rows)))


def _mat_vec(m: RatMatrix, v: Sequence[Scalar]) -> tuple[list[int], int]:
    """(ints, den) with m v = ints / den, den > 0, not reduced."""
    if len(v) != m.cols:
        raise ValueError(f"matrix has {m.cols} columns, vector length {len(v)}")
    dv, vi = _common_denominator(v)
    e, c = m._ints, m.cols
    return [sum(map(mul, e[i * c : (i + 1) * c], vi)) for i in range(m.rows)], m._den * dv


def _row_sums(m: RatMatrix) -> tuple[list[int], int]:
    """(ints, den) with m e = ints / den, den > 0, not reduced."""
    e, c = m._ints, m.cols
    return [sum(e[i * c : (i + 1) * c]) for i in range(m.rows)], m._den


def _orthogonal_rows(rows: Iterable[Sequence[int]]) -> list[tuple[list[int], int]]:
    """Fraction-free Gram-Schmidt: pairs (q, q'q) of primitive integer rows
    q, pairwise orthogonal, spanning what the integer rows span.

    Each row v becomes c v - (q'v) q against each earlier pair (q, c),
    which makes it orthogonal to q and keeps it orthogonal to the rows
    before q, and is then divided by its content.  Raises ValueError when
    the rows are linearly dependent (a row becomes zero).
    """
    basis: list[tuple[list[int], int]] = []
    for v in rows:
        for q, c in basis:
            t = sum(map(mul, q, v))
            if t:
                v = [c * x - t * y for x, y in zip(v, q)]
        content = math.gcd(*v)
        if not content:
            raise ValueError("linearly dependent vectors")
        v = [x // content for x in v]
        basis.append((v, sum(map(mul, v, v))))
    return basis


def _echelon_ints(
    rows: list[list[int]], ncols: int, reduced: bool = True
) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on integer rows, in place, with Bareiss's
    exact division; returns (pivots, q, scale).

    Each row is first divided by its content.  Pivoting is by first
    nonzero entry in the first ``ncols`` columns; row operations act on
    whole rows.  For a pivot p with row lead, every other row becomes
    ``(p*row - f*lead) // prev``, f its entry in the pivot column and prev
    the previous pivot (1 at first).  By Sylvester's identity the entries
    are then minors of the content-divided rows, so each ``//`` is exact
    (Bareiss, Math. Comp. 22, 1968).  Every pivot row ends as q times its
    reduced-echelon row, q the last pivot (1 with none), made positive by
    negating all rows; scale is the permutation's sign, negated with q,
    times the row contents, so a square input of full rank has
    determinant scale * q.

    With ``reduced=False`` only the rows below each pivot are updated:
    Bareiss's forward pass, for callers that read only the pivots, q and
    scale.  The rows at and below the current pivot row, and so the
    pivots, q and scale, are the same as in the full pass; the rows
    above are left in echelon, not reduced echelon, form.
    """
    scale = 1
    for i, row in enumerate(rows):
        content = math.gcd(*row)
        if content > 1:
            rows[i] = [x // content for x in row]
            scale *= content
    pivots: list[int] = []
    r, prev = 0, 1
    nrows = len(rows)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            scale = -scale
        lead = rows[r]
        pv = lead[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], lead)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if prev < 0:
        rows[:] = [[-x for x in row] for row in rows]
        prev, scale = -prev, -scale
    return pivots, prev, scale


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exactly."""
    work = _int_rows(m)
    pivots, q, _ = _echelon_ints(work, m.cols)
    # row t is q times row t of the form; rows past the rank are zero
    return RatMatrix._from_ints(m.rows, m.cols, q, [x for row in work for x in row]), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Dimension of the row space, by exact elimination."""
    return len(_echelon_ints(_int_rows(m), m.cols, reduced=False)[0])


def determinant(m: RatMatrix) -> Fraction:
    """Exact determinant from the forward pass of ``_echelon_ints``.

    On the integer entries A of m = A/d a full-rank pass gives
    det(A) = scale * q, and det(m) = det(A) / d^n; below full rank it is 0.
    """
    if not m.is_square():
        raise ValueError(f"determinant of {m.rows}x{m.cols} matrix")
    pivots, q, scale = _echelon_ints(_int_rows(m), m.cols, reduced=False)
    return Fraction(scale * q, m._den ** m.rows) if len(pivots) == m.rows else _ZERO


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse, the Gauss-Jordan generalized inverse of a nonsingular
    m (``_gauss_jordan``); raises ValueError if det = 0."""
    if not m.is_square():
        raise ValueError(f"inverse of {m.rows}x{m.cols} matrix")
    g, kernel, _ = _gauss_jordan(m)
    if kernel.rows:
        raise ValueError("matrix is singular")
    return g


def solve(m: RatMatrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of m x = b, or None if the system is inconsistent.

    Free variables are set to zero.  Used both as a solver and as the
    membership test "b in the column space of m".
    """
    if len(b) != m.rows:
        raise ValueError(f"matrix has {m.rows} rows, rhs length {len(b)}")
    # with m = A/d and b = c/db, m x = b is (db/g) A x = (d/g) c, g = gcd(d, db)
    db, rhs = _common_denominator(b)
    g = math.gcd(m._den, db)
    sa, sb = db // g, m._den // g
    work = [[sa * x for x in row] + [sb * c] for row, c in zip(_int_rows(m), rhs)]
    pivots, q, _ = _echelon_ints(work, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(work[r][m.cols], q)
    return tuple(x)


def _kernel_rows(work: list[list[int]], pivots: list[int], q: int, ncols: int) -> list[list[int]]:
    """One integer kernel row q * (e_j - sum_t R[t, j] e_(c_t)) per free
    column j, ascending, from the rows and last pivot q left by
    ``_echelon_ints``; R is the reduced echelon form."""
    pivot_set = set(pivots)
    out: list[list[int]] = []
    for j in range(ncols):
        if j not in pivot_set:
            v = [0] * ncols
            v[j] = q
            for t, c in enumerate(pivots):
                v[c] = -work[t][j]
            out.append(v)
    return out


def null_space_basis(m: RatMatrix) -> list[Vector]:
    """Exact basis of the kernel, one vector per free column of the reduced echelon form."""
    work = _int_rows(m)
    pivots, q, _ = _echelon_ints(work, m.cols)
    return [tuple([Fraction(x, q) for x in v]) for v in _kernel_rows(work, pivots, q, m.cols)]


def _gauss_jordan(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """(G, N, Q) from one Gauss-Jordan pass: G a generalized inverse of m,
    and the rows of N and Q integer bases of ker m and ker m'.

    The fraction-free pass runs on the integer rows of [A | d I], m = A/d,
    searching A's columns only for pivots.  The right block records the
    row operations: let row t of E be row t's right block, divided by the
    last pivot q when t is below the rank.  Then E is invertible and
    E m = R, R the reduced echelon form with pivot columns c_0 < c_1 < ...
    Let S put row t at row c_t.  R S is the identity on the first r = rank
    coordinates and zero past them, so R S R = R, and G = S E is a
    generalized inverse: m G m = E^-1 R S R = m.  N is read off the free
    columns of R; the rows of E past the rank are Q, because they
    annihilate m and E is invertible.  A nonsingular m gets G = m^-1 and
    empty N and Q, and the zero matrix gets G = 0.
    """
    rows, cols = m.rows, m.cols
    work = _int_rows(m)
    for i, row in enumerate(work):
        tail = [0] * rows
        tail[i] = m._den
        row.extend(tail)
    pivots, q, _ = _echelon_ints(work, cols)
    # row t of work over q is row t of [R | E]
    g_ints = [0] * (cols * rows)
    for t, c in enumerate(pivots):
        g_ints[c * rows : (c + 1) * rows] = work[t][cols:]
    g = RatMatrix._from_ints(cols, rows, q, g_ints)
    n_t = _from_int_rows(_kernel_rows(work, pivots, q, cols), cols, 1)
    return g, n_t, _from_int_rows([row[cols:] for row in work[len(pivots) :]], rows, 1)


def _project_out(g: RatMatrix, n_t: RatMatrix, q: RatMatrix) -> RatMatrix:
    """(I - P_N) g (I - P_Q), P_N and P_Q the orthogonal projections onto
    the row spaces of n_t and q; g itself when both have no rows.

    Fraction-free Gram-Schmidt (``_orthogonal_rows``) turns the rows of
    n_t and of q into orthogonal integer bases, so that I - P_N and
    I - P_Q are products of the commuting rank-one projections
    I - p p'/c, c = p'p, applied one at a time.  On g = A/d each is one
    one-term ``_rank_update`` of A's rows,

        (I - p p'/c) g = (c A - p (p'A)) / (c d),
        g (I - p p'/c) = (c A - (A p) p') / (c d),

    with no product and no Gram inverse.
    """
    if not (n_t.rows or q.rows):
        return g
    rows, den = _int_rows(g), g._den
    for p, c in _orthogonal_rows(_int_rows(n_t)):
        rows = _rank_update(c, rows, [p], [[sum(map(mul, p, col)) for col in zip(*rows)]])
        den *= c
    for p, c in _orthogonal_rows(_int_rows(q)):
        rows = _rank_update(c, rows, [[sum(map(mul, row, p)) for row in rows]], [p])
        den *= c
    return _from_int_rows(rows, g.cols, den)


def pseudoinverse(m: RatMatrix) -> RatMatrix:
    """Moore-Penrose inverse, exactly.

    For every generalized inverse G of m (m G m = m)

        pinv(m) = pinv(m) m G m pinv(m) = (I - P_N) G (I - P_Q),

    since pinv(m) m and m pinv(m) are the orthogonal projections onto the
    complements of N = ker m and Q = ker m'.  G, N and Q come from one
    Gauss-Jordan pass (``_gauss_jordan``), for every shape and order, and
    the projections are rank-one updates (``_project_out``), with no
    product and no inverse.
    """
    return _project_out(*_gauss_jordan(m))


def penrose_check(m: RatMatrix, x: RatMatrix) -> bool:
    """True iff x satisfies all four Penrose conditions for m, exactly.

    MXM = M, XMX = X, and both MX and XM symmetric.  When m and x are
    both symmetric, XM = X'M' = (MX)', so the fourth condition follows
    from the third and XM is not formed.
    """
    if x.rows != m.cols or x.cols != m.rows:
        raise ValueError(
            f"candidate must be {m.cols}x{m.rows}, got {x.rows}x{x.cols}"
        )
    mx = m @ x
    return (
        mx @ m == m
        and x @ mx == x
        and mx.is_symmetric()
        and (m.is_symmetric() and x.is_symmetric() or (x @ m).is_symmetric())
    )


def inertia(m: RatMatrix) -> InertiaTriple:
    """Exact inertia (i_plus, i_minus, i_zero) of a symmetric matrix.

    Sylvester congruence reduction (symmetric 1x1 and 2x2 pivots as in
    Bunch and Kaufman, Math. Comp. 31, 1977, done fraction-free): pivot on
    the nonzero diagonal entry p of least absolute value in the remaining
    block, the lowest index on a tie; when the whole diagonal is zero, a
    symmetric 2x2 pivot on the first nonzero off-diagonal entry (in
    row-major order) contributes one positive and one negative eigenvalue.
    A zero remaining block terminates with i_zero.  The least pivot keeps
    the entries small: on helm L at n = 101 the largest entry stays near
    24 bits, against 192 with the first nonzero diagonal entry.

    Each step eliminates a block P of pivots at once.  A 1x1 step takes
    p, then, in ascending (|a_jj|, j) order, each j with a_jj != 0 whose
    entries against p and against every pivot already in P are zero, so
    M_PP is diagonal; a 2x2 step takes [[0, b], [b, 0]].  By Haynsworth's
    additivity (LAA 1, 1968) the signs of P's eigenvalues join the
    inertia, and the step goes on with the Schur complement
    M_QQ - U P^-1 U', U the block's columns on the other indices Q.  A
    dense matrix, with no zero in p's column, takes blocks of one pivot
    only.  On helm L the first block is the hub and the pendants, so one
    step replaces n of them.

    The work is in integers and on the lower triangle only: the integer
    entries are m times its positive denominator, and a step leaves the
    positive multiple l M_QQ - U K U' of the Schur complement, K = l P^-1,
    divided by its content: l = lcm |d_q| and K = diag(l // d_q) over a
    1x1 block's pivots d_q, l = |b| and K = sgn(b) times the swap for a
    2x2 pivot.  U K U' is swept row by row for one or two pivots and is
    one packed product for three or more; a U that is all zero leaves
    l M_QQ.  Positive scalings keep the inertia, and the pivot rule
    depends only on the matrix, so the same input always takes the same
    path.

    The report calls this only for an L that does not lift to a
    bordered element with symmetric blocks.  A helm L, and the Schur
    chain's C, take their inertias from cyclotomic trace forms
    (``cyclotomic``), whose small forms go to this same kernel, so the
    package keeps one congruence; the tests compare the two routes.  The
    tests' plain-``Fraction`` congruence and characteristic-polynomial
    sign count stay the kernel's independent checks.
    """
    if not m.is_symmetric():
        raise ValueError("inertia requires a symmetric matrix")
    return _congruence(m)


def _content(rows: list[list[int]], content: int = 0) -> int:
    """gcd(content, every entry of rows), stopping early at 1."""
    for row in rows:
        content = math.gcd(content, *row)
        if content == 1:
            break
    return content


def _rank_update(
    scale: int, rows: Iterable[Iterable[int]], left: list[list[int]], right: list[list[int]]
) -> list[list[int]]:
    """scale * rows - L R over the integers: L has the columns ``left`` (one
    entry per row of rows) and R the rows ``right``, one of each per term.

    Row k of the result is as long as row k of rows, which may be shorter
    than the rows of R, so the rows of a lower triangle give the lower
    triangle of the result.  The arithmetic follows the number of terms:
    one or two are swept row by row, three or more are one packed
    ``RatMatrix`` product, and an L that is all zero only scales the rows.
    """
    if len(left) == 1:
        (r,) = right
        return [
            [scale * x - s * y for x, y in zip(row, r)] if s else [scale * x for x in row]
            for row, s in zip(rows, left[0])
        ]
    if not any(map(any, left)):
        return [[scale * x for x in row] for row in rows]
    if len(left) == 2:
        r, v = right
        return [
            [scale * x - s * y - t * z for x, y, z in zip(row, r, v)]
            for row, s, t in zip(rows, *left)
        ]
    nr, nb, nc = len(left[0]), len(left), len(right[0])
    lr = RatMatrix._from_ints(nr, nb, 1, [x for r in zip(*left) for x in r]) @ RatMatrix._from_ints(
        nb, nc, 1, [x for r in right for x in r]
    )
    update = lr._ints
    return [
        [scale * x - y for x, y in zip(row, update[k * nc : (k + 1) * nc])]
        for k, row in enumerate(rows)
    ]


def _congruence(m: RatMatrix, carry: bool = False) -> Union[InertiaTriple, "_Factor"]:
    """The inertia of the symmetric m; see ``inertia``.  With ``carry``,
    the factor of m (``_Factor``) from the same pivots.

    The block is kept as its lower triangle: row i holds a_ij for j <= i,
    so it ends at the diagonal and meets the columns from their start.
    Each step takes a block P of integer pivots, the other indices Q and
    U the block's columns on Q, and leaves l M_QQ - U K U', l times the
    Schur complement of P for K = l P^-1:

    * P the least diagonal pivot and the pivots uncoupled from it:
      K = diag(l // d_q) for l = lcm |d_q|;
    * P a 2x2 pivot [[0, b], [b, 0]] on a zero diagonal, whose
      eigenvalues b and -b stand for its pivots: K = sgn(b) times the
      swap, l = |b|.

    So column c of U K is k_c times column c of U, or of U with its two
    columns swapped, and the step is one ``_rank_update`` of the kept
    triangle by U K and U'.

    ``carry`` applies every row operation, with the same multipliers, to
    the rows of a transform E that starts as I, so E M E' is block
    diagonal: the pivot blocks and a zero block.  E's remaining rows are
    plain integer rows of full length, E times one common scale ``se``,
    like the right block of ``_gauss_jordan``'s [A | d I].  A step's rows
    F of E are its pivots' rows, the other rows E_Q become l E_Q - U K F
    (the same update as the triangle), and the step's terms of G below
    are taken with its pivots.  The kept triangle is the complement times
    nw/dw.  Each is divided by its own content after each step, and the
    scales are two integer ratios, not ``Fraction``s.  Then:

    * det M is the product of the pivots, or 0 with a kernel;
    * the rows of E that leave as zero rows (dropped before a 2x2 step or
      left at the end) annihilate M, and are a basis of its kernel;
    * G = F' Omega F, F the pivots' rows of E and Omega the blocks'
      inverses K / l, is a symmetric generalized inverse
      (M G M = E^-1 Delta Delta^+ Delta E'^-1 = M), and M^-1 for a
      nonsingular M; it is one packed product.
    """
    e, n = m._ints, m.rows
    w = [list(e[i * n : i * n + i + 1]) for i in range(n)]
    i_zero, all_pivots = 0, []
    if carry:
        # E's remaining rows er (the rows of I to start), the Gram terms
        # (f, g, a, b) of G = sum (a/b) f' g, the kernel rows, and
        # det = det_num / det_den
        er = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
        terms, kernel = [], []
        se, nw, dw, det_num, det_den = 1, m._den, 1, 1, 1

    def full_column(q: int) -> list[int]:
        return w[q] + [row[q] for row in w[q + 1 :]]

    while w:
        diag = [abs(row[-1]) for row in w]
        if any(diag):
            p = diag.index(min(filter(None, diag)))
            # p, then greedily each index uncoupled from p (a zero in p's
            # column) and from every pivot already taken, by (|a_jj|, j)
            block, cols, dropped = [p], [full_column(p)], []
            if 0 in cols[0]:
                candidates = [(diag[j], j) for j, x in enumerate(cols[0]) if not x and diag[j]]
                for _, j in sorted(candidates):
                    if not any([w[max(j, q)][min(j, q)] for q in block[1:]]):
                        block.append(j)
                        cols.append(full_column(j))
            pivots = [w[q][-1] for q in block]
            # d_q divides l, so l // d_q is sgn(d_q) l/|d_q| exactly
            scale = math.lcm(*pivots)
            ks, swap = [scale // d for d in pivots], False
        else:
            # the whole diagonal is zero, so the indices before the first
            # one with a nonzero entry below the diagonal are zero rows and
            # columns: zero eigenvalues
            p = next((j for j in range(len(w)) if any([row[j] for row in w[j + 1 :]])), None)
            if p is None:
                break
            i_zero += p
            if carry:
                kernel += er[:p]
            q = next(i for i in range(p + 1, len(w)) if w[i][p])
            b = w[q][p]
            block, cols, dropped = [p, q], [full_column(p), full_column(q)], range(p)
            pivots, scale, swap = [b, -b], abs(b), True
            ks = [b // scale] * 2
        keep = [True] * len(w)
        for q in [*dropped, *block]:
            keep[q] = False
        u = [list(compress(c, keep)) for c in cols]
        uk = [c if k == 1 else [k * x for x in c] for k, c in zip(ks, u[::-1] if swap else u)]
        w = _rank_update(scale, map(compress, compress(w, keep), repeat(keep)), uk, u)
        all_pivots += pivots
        if carry:
            f = [er[q] for q in block]
            # the true block is P dw/nw and F's rows are E's over se, so
            # Omega = (K / l) nw/dw over se^2; row c of F meets row c, or
            # its partner's
            om = scale * dw * se * se
            terms += [(r, g, k * nw, om) for r, g, k in zip(f, f[::-1] if swap else f, ks)]
            det_num *= math.prod(pivots) * dw ** len(block)
            det_den *= nw ** len(block)
            er = _rank_update(scale, compress(er, keep), uk, f)
        content = _content(w)
        if content > 1:
            w = [[x // content for x in row] for row in w]
        if carry:
            nw, dw = nw * scale, dw * max(content, 1)
            g = math.gcd(nw, dw)
            nw, dw = nw // g, dw // g
            se *= scale
            content = _content(er, se)
            if content > 1:
                er = [[x // content for x in row] for row in er]
                se //= content
    i_plus = len([d for d in all_pivots if d > 0])
    tri = InertiaTriple(i_plus, len(all_pivots) - i_plus, i_zero + len(w))
    if not carry:
        return tri
    kernel = [[x // c for x in v] for v in kernel + er for c in [math.gcd(*v)]]
    return _Factor(
        tri,
        _ZERO if kernel else Fraction(det_num, det_den),
        _weighted_gram(n, terms),
        _from_int_rows(kernel, n, 1),
    )


# -- Schur-complement recursion for symmetric matrices --------------------------

# Symmetric matrices of this order or less are factored by the base pass
# (the congruence with its row transform); larger ones are split in two.
# On a 2-vCPU x86_64 VM (Python 3.11), factor_symmetric took 4.4-4.7 ms of
# `verify --n 21` for every cutoff from 8 to 32, 27.9-29.1 ms of
# `verify --n 61` and 9.9-11.2 ms of a sweep of n = 4..13 for cutoffs 8
# to 24, and 33.0 and 11.6 ms at 32 (min of 15 interleaved rounds).
_SCHUR_CUTOFF = 16


class _Factor(NamedTuple):
    inertia: InertiaTriple
    det: Fraction
    ginv: RatMatrix  # a symmetric generalized inverse
    kernel: RatMatrix  # its rows are a basis of the kernel


def _weighted_gram(n: int, terms: list[tuple[list[int], list[int], int, int]]) -> RatMatrix:
    """sum (a/b) f' g over the terms (f, g, a, b), b > 0, of integer rows of
    length n, as one packed product F' (Omega G)."""
    if not terms:
        return RatMatrix.zeros(n, n)
    terms = [(f, g, a // c, b // c) for f, g, a, b in terms for c in [math.gcd(a, b)]]
    den = math.lcm(*[b for *_, b in terms])
    left = RatMatrix._from_ints(len(terms), n, 1, [x for f, *_ in terms for x in f])
    right = [x * a * (den // b) for _, g, a, b in terms for x in g]
    return left.transpose() @ RatMatrix._from_ints(len(terms), n, den, right)


def _schur_split(m: RatMatrix) -> Optional[_Factor]:
    """The factor of m from its split into a leading and a trailing half
    of its indices; None when the leading block is singular.

    The indices are taken in one order that depends only on m: those with
    a nonzero diagonal entry, then the other indices of nonzero rows, then
    those of zero rows (which make every principal block holding them
    singular, so they never lead), each group ascending.
    """
    e, size = m._ints, m.rows
    order = sorted(
        range(size),
        key=lambda i: (not e[i * (size + 1)]) + (not any(e[i * size : (i + 1) * size])),
    )
    lead, rest = order[: size // 2], order[size // 2 :]
    fa = _factor(m.submatrix(lead, lead))
    if fa.inertia.i_zero:
        return None
    b = m.submatrix(lead, rest)
    y = fa.ginv @ b
    fs = _factor(m.submatrix(rest, rest) - b.transpose() @ y)
    y_t = y.transpose()
    z = y @ fs.ginv
    zy = z @ y_t
    # [[A^- + Z Y', -Z], [-Z', S^-]] over one denominator, in one pass over
    # the integer rows, and the kernel [-K Y', K] likewise
    den = math.lcm(fa.ginv._den, zy._den, z._den, fs.ginv._den)
    sa, sy, sz, ss = [den // x._den for x in (fa.ginv, zy, z, fs.ginv)]
    neg_z = [[-sz * x for x in r] for r in _int_rows(z)]
    ginv = [
        [sa * x + sy * t for x, t in zip(g, p)] + r
        for g, p, r in zip(_int_rows(fa.ginv), _int_rows(zy), neg_z)
    ] + [[*c, *[ss * x for x in g]] for c, g in zip(zip(*neg_z), _int_rows(fs.ginv))]
    kernel, kden = [], 1
    if fs.kernel.rows:
        ky = fs.kernel @ y_t
        kden = math.lcm(ky._den, fs.kernel._den)
        sky, sk = kden // ky._den, kden // fs.kernel._den
        kernel = [
            [-sky * x for x in p] + [sk * x for x in r]
            for p, r in zip(_int_rows(ky), _int_rows(fs.kernel))
        ]
    if order != list(range(size)):
        back = sorted(range(size), key=order.__getitem__)  # the inverse permutation
        pick = itemgetter(*back)
        ginv = [pick(ginv[i]) for i in back]
        kernel = [pick(row) for row in kernel]
    tri = InertiaTriple(*[a + s for a, s in zip(fa.inertia, fs.inertia)])
    return _Factor(
        tri, fa.det * fs.det, _from_int_rows(ginv, size, den), _from_int_rows(kernel, size, kden)
    )


def _factor(m: RatMatrix) -> _Factor:
    if m.rows > _SCHUR_CUTOFF:
        f = _schur_split(m)
        if f is not None:
            return f
    return _congruence(m, carry=True)


def factor_symmetric(m: RatMatrix) -> tuple[InertiaTriple, Fraction, RatMatrix]:
    """(inertia, determinant, Moore-Penrose inverse) of a symmetric m, from
    one factorization (see the module docstring): the factor's symmetric
    generalized inverse projected on both sides off its kernel by
    ``_project_out``, as in ``pseudoinverse``."""
    if not m.is_symmetric():
        raise ValueError("factor_symmetric requires a symmetric matrix")
    f = _factor(m)
    return f.inertia, f.det, _project_out(f.ginv, f.kernel, f.kernel)
